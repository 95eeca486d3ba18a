"""Abelian totally real number fields via Dirichlet character tables.

A field is described by the primitive Dirichlet characters whose L-functions
multiply to its Dedekind zeta function (conductor-discriminant).  Character
values are stored as exact rational angles k/n (the value is e^{2 pi i k/n}),
so conjugate pairing, multiplicativity and primitivity can be checked exactly.

The quantity the height formulas consume is zeta_F'(-1)/zeta_F(-1), the sum
over characters of L'(-1)/L(-1), with L(s, chi) = f^(-s) sum_a chi(a) zeta(s, a/f)
at the character's own conductor f (1 for the trivial character), which keeps
out the Euler factors of an imprimitive evaluation.  At s = -1 both come from
zeta(-1, x) = -B_2(x)/2 and the odd-zeta series Q of :mod:`orbiheight.specfun`,
the kernel the heights use; Q pairs a with f - a, which needs chi(-1) = 1, and
every character of a totally real field is even.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from importlib import resources
from math import gcd

from .specfun import _ZETA_PRIME_M1, EvalResult, _q

__all__ = [
    "Character",
    "FieldSpec",
    "ComplexEvalResult",
    "dirichlet_L",
    "dirichlet_L_ds",
    "dedekind_log_deriv",
    "builtin_fields",
    "get_field",
    "load_fields",
]

_EPS = math.ulp(1.0)


_EXACT_ROOTS = {
    Fraction(0): 1.0 + 0.0j,
    Fraction(1, 4): 1.0j,
    Fraction(1, 2): -1.0 + 0.0j,
    Fraction(3, 4): -1.0j,
}


def _root_of_unity(angle: Fraction) -> complex:
    """e^{2 pi i angle}, exact for quarter turns so real characters stay real."""
    angle %= 1
    if angle in _EXACT_ROOTS:
        return _EXACT_ROOTS[angle]
    return cmath.exp(2j * math.pi * float(angle))


@dataclass(frozen=True)
class ComplexEvalResult:
    """Complex value with an absolute error estimate on each component."""

    value: complex
    err: float


class Character:
    """Dirichlet character mod `modulus`, given by exact angle values.

    `angles` maps residues a coprime to the modulus to Fractions k/n with
    chi(a) = e^{2 pi i k/n}; residues with gcd(a, f) > 1 take the value 0.
    """

    def __init__(self, modulus: int, angles: dict[int, Fraction]):
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        self.modulus = modulus
        self.angles = {a % modulus: Fraction(k) % 1 for a, k in angles.items()}
        if set(self.angles) != {a for a in range(modulus) if gcd(a, modulus) == 1}:
            raise ValueError(f"character table must cover (Z/{modulus})^x exactly")
        self._check_multiplicative()
        self._check_primitive()

    def __call__(self, a: int) -> complex:
        k = self.angles.get(a % self.modulus)
        return 0j if k is None else _root_of_unity(k)

    @property
    def is_trivial(self) -> bool:
        return all(k == 0 for k in self.angles.values())

    @property
    def is_even(self) -> bool:  # chi(-1) = 1
        return self.angles[-1 % self.modulus] == 0

    @property
    def is_real(self) -> bool:
        return all(2 * k % 1 == 0 for k in self.angles.values())

    def conjugate(self) -> "Character":
        return Character(self.modulus, {a: (-k) % 1 for a, k in self.angles.items()})

    def _check_multiplicative(self):
        f = self.modulus
        for a in self.angles:
            for b in self.angles:
                ab = (a * b) % f if f > 1 else 0
                if (self.angles[a] + self.angles[b] - self.angles[ab]) % 1 != 0:
                    raise ValueError(f"character table mod {f} is not multiplicative at ({a},{b})")

    def _check_primitive(self):
        # chi has a conductor below f exactly when, for some prime p | f, it is
        # 1 on every unit a = 1 mod f/p
        f = n = self.modulus
        p = 2
        while n > 1:
            if n % p == 0:
                while n % p == 0:
                    n //= p
                if all(k == 0 for a, k in self.angles.items() if a % (f // p) == 1 % (f // p)):
                    raise ValueError(f"character mod {f} is imprimitive: it is defined mod {f // p}")
            p += 1


@dataclass(frozen=True)
class FieldSpec:
    """Abelian totally real field: id, modulus and its character group."""

    id: str
    modulus: int
    characters: tuple[Character, ...]

    @property
    def degree(self) -> int:
        return len(self.characters)

    def __post_init__(self):
        # The trivial character carries the Riemann zeta factor of zeta_F.
        if sum(ch.is_trivial for ch in self.characters) != 1:
            raise ValueError(f"field {self.id!r}: the trivial character must occur exactly once")
        # A totally real field has only even characters, and L'(-1, chi) below needs evenness.
        if not all(ch.is_even for ch in self.characters):
            raise ValueError(f"field {self.id!r}: odd character (chi(-1) = -1) in a totally real field")
        # Non-real characters must occur in conjugate pairs so products are real.
        pool = [ch for ch in self.characters if not ch.is_real]
        while pool:
            ch = pool.pop()
            conj = ch.conjugate()
            match = next((o for o in pool if o.modulus == conj.modulus and o.angles == conj.angles), None)
            if match is None:
                raise ValueError(f"field {self.id!r}: non-real character without conjugate partner")
            pool.remove(match)


def dirichlet_L(chi: Character) -> ComplexEvalResult:
    """L(-1, chi) = -(f/2) sum_a chi(a) B_2(a/f); each B_2 is rounded once, and
    err adds an eps of the terms' size per product and partial sum."""
    f = chi.modulus
    total = 0j
    mag = 0.0
    for a, ang in chi.angles.items():
        a = a or 1  # residue 0 stands for a = 1 when f = 1
        b = (6 * a * (a - f) + f * f) / (6 * f * f)  # B_2(a/f), a correctly rounded int division
        total += _root_of_unity(ang) * b
        mag += abs(b)
    return ComplexEvalResult(-0.5 * f * total, 0.5 * f * (len(chi.angles) + 4) * _EPS * mag)


def dirichlet_L_ds(chi: Character) -> ComplexEvalResult:
    """d/ds L(s, chi) at s = -1 from the Q series, for an even character.

    Pairing a with f - a by zeta'(-1, x) + zeta'(-1, 1 - x) = Q(x) + B_2(x),
    with sum chi(a) = 0, gives L'(-1, chi) = -(1 + ln f) L(-1, chi)
    + (f/2) sum_a chi(a) (Q(a/f) - Q(0)); the trivial one is zeta'(-1), from Q(1/2).
    err adds the Q bounds, the rounding of a/f, where |Q'| < 3 + 2 ln f, and of the sums.
    """
    f = chi.modulus
    if f == 1:
        value, err = _ZETA_PRIME_M1
        return ComplexEvalResult(complex(value), err)
    if not chi.is_even:
        raise ValueError(f"L'(-1, chi) from the Q series needs an even character; chi mod {f} is odd")
    total = 0j
    mag = err = 0.0
    for a, ang in chi.angles.items():
        q, e, _ = _q(a / f)
        total += _root_of_unity(ang) * q
        mag += abs(q)
        err += e
    n, lf1, lv = len(chi.angles), 1.0 + math.log(f), dirichlet_L(chi)
    head, tail = -lf1 * lv.value, 0.5 * f * total
    err = lf1 * lv.err + 0.5 * f * (err + n * _EPS * (3.0 + 2.0 * math.log(f)) + (n + 4) * _EPS * mag)
    return ComplexEvalResult(head + tail, err + 2.0 * _EPS * (abs(head) + abs(tail)))


@lru_cache
def dedekind_log_deriv(field: FieldSpec) -> EvalResult:
    """zeta_F'(-1)/zeta_F(-1) as the sum of L'(-1, chi)/L(-1, chi).

    Memoized on the field (grid sweeps hit this repeatedly).
    """
    total = 0j
    err = 0.0
    for chi in field.characters:
        lv = dirichlet_L(chi)
        ld = dirichlet_L_ds(chi)
        if abs(lv.value) < 1e-8:
            raise ValueError(f"L(-1, chi) vanishes within tolerance for field {field.id!r}")
        total += ld.value / lv.value
        err += (ld.err + abs(ld.value / lv.value) * lv.err) / abs(lv.value)
    if abs(total.imag) > 1e-10:
        raise ValueError(f"Dedekind log derivative for {field.id!r} is not real: {total!r}")
    return EvalResult(total.real, err + 1e-14)


def _field_from_dict(doc: dict) -> FieldSpec:
    chars = []
    for entry in doc["characters"]:
        mod = int(entry.get("modulus", doc["modulus"]))
        angles = {int(a): Fraction(k, n) for a, (k, n) in entry["values"].items()}
        chars.append(Character(mod, angles))
    return FieldSpec(doc["id"], int(doc["modulus"]), tuple(chars))


def load_fields(text: str) -> dict[str, FieldSpec]:
    """Parse a JSON document holding one field or a list of fields."""
    doc = json.loads(text)
    docs = doc if isinstance(doc, list) else [doc]
    out = {}
    for d in docs:
        fs = _field_from_dict(d)
        if fs.id in out:
            raise ValueError(f"duplicate field id {fs.id!r}")
        out[fs.id] = fs
    return out


@cache
def _builtin() -> dict[str, FieldSpec]:
    return load_fields(resources.files("orbiheight.data").joinpath("fields.json").read_text())


def builtin_fields() -> dict[str, FieldSpec]:
    """The seven shipped fields (Q, four real quadratic, two real cubic)."""
    return dict(_builtin())


def get_field(field_id: str) -> FieldSpec:
    fields = _builtin()
    if field_id not in fields:
        raise KeyError(f"unknown field {field_id!r}; shipped: {sorted(fields)}")
    return fields[field_id]
