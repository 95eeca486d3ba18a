"""Abelian totally real number fields via Dirichlet character tables.

A field is described by the primitive Dirichlet characters whose L-functions
multiply to its Dedekind zeta function (conductor-discriminant).  Character
values are stored as exact rational angles k/n (the value is e^{2 pi i k/n}),
so conjugate pairing and multiplicativity can be checked exactly.

The quantity the height formulas consume is the logarithmic derivative
zeta_F'(-1)/zeta_F(-1), computed as sum over characters of L'(-1)/L(-1),
where each L-value comes from the finite Hurwitz-zeta sum

    L(s, chi) = f^(-s) * sum_{a=1..f} chi(a) zeta(s, a/f)

at the character's own conductor f.  Using each character's conductor (the
trivial character has conductor 1) is what removes the spurious Euler
factors an imprimitive evaluation would introduce.  At s = -1 the zeta
values are the exact rationals zeta(-1, a/f) = -B_2(a/f)/2, so the
general-s Hurwitz kernel runs only for other s.
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

from .specfun import EvalResult, hurwitz_zeta, hurwitz_zeta_ds

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

    def __call__(self, a: int) -> complex:
        k = self.angles.get(a % self.modulus)
        return 0j if k is None else _root_of_unity(k)

    @property
    def is_trivial(self) -> bool:
        return all(k == 0 for k in self.angles.values())

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
        # Non-real characters must occur in conjugate pairs so products are real.
        pool = [ch for ch in self.characters if not ch.is_real]
        while pool:
            ch = pool.pop()
            conj = ch.conjugate()
            match = next((o for o in pool if o.modulus == conj.modulus and o.angles == conj.angles), None)
            if match is None:
                raise ValueError(f"field {self.id!r}: non-real character without conjugate partner")
            pool.remove(match)


def _zeta_m1(a: int, f: int) -> EvalResult:
    """zeta(-1, a/f) = -B_2(a/f)/2, rounded once from the exact rational."""
    t = Fraction(a, f)
    v = float((t - t * t - Fraction(1, 6)) / 2)
    return EvalResult(v, _EPS * abs(v))


def dirichlet_L(s: float, chi: Character) -> ComplexEvalResult:
    """L(s, chi) by the finite Hurwitz sum at the character's modulus."""
    if s == 1.0 and chi.is_trivial:
        raise ValueError("L(s, trivial) has a pole at s = 1")
    f = chi.modulus
    total = 0j
    err = 0.0
    for a, ang in chi.angles.items():
        aa = a if f > 1 else 1
        z = _zeta_m1(aa, f) if s == -1.0 else hurwitz_zeta(s, aa / f)
        w = _root_of_unity(ang)
        total += w * z.value
        err += z.err
    scale = f ** (-s)
    return ComplexEvalResult(scale * total, scale * err)


def dirichlet_L_ds(chi: Character) -> ComplexEvalResult:
    """d/ds L(s, chi) at s = -1.

    Differentiating f^(-s) sum chi(a) zeta(s, a/f) gives
    f^(-s) [ -ln f * sum chi(a) zeta(s, a/f) + sum chi(a) zeta'(s, a/f) ].
    """
    f = chi.modulus
    s_sum = 0j
    d_sum = 0j
    err = 0.0
    for a, ang in chi.angles.items():
        aa = a if f > 1 else 1
        z = _zeta_m1(aa, f)
        zd = hurwitz_zeta_ds(aa / f)
        w = _root_of_unity(ang)
        s_sum += w * z.value
        d_sum += w * zd.value
        err += z.err * abs(math.log(max(f, 1))) + zd.err
    scale = float(f)  # f^(-s) at s = -1
    lf = math.log(f) if f > 1 else 0.0
    return ComplexEvalResult(scale * (-lf * s_sum + d_sum), scale * err + 1e-15)


@lru_cache
def dedekind_log_deriv(field: FieldSpec) -> EvalResult:
    """zeta_F'(-1)/zeta_F(-1) as the sum of L'(-1, chi)/L(-1, chi).

    Memoized on the field (grid sweeps hit this repeatedly).
    """
    total = 0j
    err = 0.0
    for chi in field.characters:
        lv = dirichlet_L(-1.0, chi)
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
