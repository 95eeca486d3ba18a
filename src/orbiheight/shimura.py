"""Local invariants h(p) of canonical models of quaternionic Shimura curves.

For the shipped curves, the canonical integral model's Petersson height is
given by a closed formula of Yuan's,

    h_Pet = -1/2 - (1/[F:Q]) zeta_F'(-1)/zeta_F(-1)
            + (1/[F:Q]) sum_over_ramified_primes c(N) * ln N(p),

with c(N) = (3N - 1)/(4(N - 1)) in terms of the residue norm N, while the
optimal (fiberwise-stable) model's Petersson height is a closed-form table
row plus a bookkeeping correction.  Their difference is an exact rational
combination of ln p; the coefficients, rescaled by twice the orbifold degree,
are the local discrepancies h(p) between the two models.  Everything here is
exact Fraction arithmetic on :class:`LogCombo`; no floating point enters
until a caller evaluates.

Case data ships as JSON fixtures (``data/shimura_cases.json``); each case
names its `tables.TABLE1` row by indices (``row``), or gives the indices of a
four-point divisor at {0, 1, -1, infinity} (``four_points``) that the loader
folds onto a row, and the loader builds its optimal height once, from the
row's field and Petersson height.  Each ramified prime is given by its
rational ``prime`` and ``residue_degree`` (the norm prime^residue_degree is
derived), with an optional exact ``coeff``.  Two entries carry
deliberate per-case overrides documented in the fixture itself and in the
tests: the sqrt-6 case uses its reference derivation's 7/4 * ln 2 prime term
(the generic c(2) = 5/4 contradicts it) together with its printed table row
(``"printed": true``: the printed constant of ``tables.PRINTED_DEVIATIONS``
replaces the row's), and the modular curve reports the normalized-difference
coefficients directly (scale 1 rather than twice the orbifold degree).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources

from .fields import get_field
from .heights import RamIndices
from .lcombo import LogCombo
from .tables import PRINTED_DEVIATIONS, table1_row

__all__ = [
    "RamifiedPrime",
    "ShimuraCase",
    "yuan_prime_coeff",
    "yuan_height",
    "h_p_map",
    "orbifold_degree",
    "builtin_cases",
    "get_case",
]


def yuan_prime_coeff(norm: int) -> Fraction:
    """(3N - 1) / (4(N - 1)) for a ramified prime of residue norm N."""
    if norm < 2:
        raise ValueError(f"residue norm must be >= 2, got {norm!r}")
    return Fraction(3 * norm - 1, 4 * (norm - 1))


@dataclass(frozen=True)
class RamifiedPrime:
    """A prime ideal in the ramification locus, above `prime` with residue
    degree f: residue norm N = prime^f.

    `coeff` overrides the generic (3N-1)/(4(N-1)) coefficient when the case
    derivation fixes a different exact value.
    """

    prime: int
    residue_degree: int
    coeff: Fraction | None = None

    def __post_init__(self):
        if self.prime < 2 or self.residue_degree < 1:
            raise ValueError(f"a ramified prime needs prime >= 2 and residue degree >= 1, got {self.prime}, {self.residue_degree}")

    @property
    def norm(self) -> int:
        return self.prime**self.residue_degree

    def coefficient(self) -> Fraction:
        return self.coeff if self.coeff is not None else yuan_prime_coeff(self.norm)


@dataclass(frozen=True)
class ShimuraCase:
    """One curve; `optimal` is its optimal model's Petersson height: its table
    row, plus the printed offset or the fold's (1/2) ln 2 where it has one."""

    id: str
    field_id: str
    ramified: tuple[RamifiedPrime, ...]
    optimal: LogCombo
    k_degree: Fraction
    expected_h: dict[int, Fraction]
    h_scale: Fraction | None = None

    def __post_init__(self):
        if self.k_degree <= 0:
            raise ValueError(f"case {self.id!r}: orbifold degree must be positive")
        get_field(self.field_id)

    def scale(self) -> Fraction:
        return self.h_scale if self.h_scale is not None else 2 * self.k_degree


def yuan_height(case: ShimuraCase) -> LogCombo:
    """Petersson height of the canonical model as an exact combination.

    ln N(p) expands as residue_degree * ln p, so the result is prime-indexed.
    """
    deg = get_field(case.field_id).degree
    logs: dict[int, Fraction] = {}
    for rp in case.ramified:
        c = rp.coefficient() * rp.residue_degree / deg
        logs[rp.prime] = logs.get(rp.prime, Fraction(0)) + c
    return LogCombo(q0=Fraction(-1, 2), zeta_terms={case.field_id: Fraction(-1)}, logs=logs)


def h_p_map(case: ShimuraCase) -> dict[int, Fraction]:
    """Exact local discrepancies h(p), read off the height difference.

    The constant, ln pi and Dedekind terms of the two heights must cancel
    exactly; surviving terms indicate inconsistent case data.
    """
    diff = yuan_height(case) - case.optimal
    if diff.zeta_terms:
        raise ValueError(f"case {case.id!r}: field terms do not cancel: {diff.zeta_terms}")
    if diff.q0 != 0 or diff.c_logpi != 0:
        raise ValueError(f"case {case.id!r}: non-logarithmic terms survive in the height difference")
    scale = case.scale()
    return {p: c * scale for p, c in sorted(diff.logs.items())}


def orbifold_degree(m: RamIndices) -> Fraction:
    """Degree of the log canonical bundle: sum (1 - 1/m_i) - 2, exactly."""
    total = Fraction(-2)
    for x in m.m:
        total += 1 if x == math.inf else 1 - Fraction(1, int(x))
    return total


# The degree-two map y = x^2 folds a divisor at {0, 1, -1, infinity} with
# indices (m0, m1, m1, m_inf) onto {0, 1, infinity} with (2 m0, m1, 2 m_inf);
# the optimal height of the four-point curve is the folded row's plus (1/2) ln 2.
_FOLD_CORRECTION = LogCombo(logs={2: Fraction(1, 2)})


def _fold_four_points(m) -> tuple[tuple, LogCombo]:
    """TABLE1 indices of the fold of the indices m at (0, 1, -1, infinity),
    None for infinity, with the fold's exact correction."""
    if len(m) != 4 or m[1] != m[2]:
        raise ValueError(f"'four_points' lists the indices at 0, 1, -1 and infinity, one index at both 1 and -1, got {m!r}")
    m0, m1, _, m_inf = m
    return (None if m0 is None else 2 * m0, m1, None if m_inf is None else 2 * m_inf), _FOLD_CORRECTION


def _parse_case(doc: dict) -> ShimuraCase:
    def frac(v) -> Fraction:
        return Fraction(v[0], v[1])

    ramified = tuple(
        RamifiedPrime(
            prime=int(r["prime"]),
            residue_degree=int(r["residue_degree"]),
            coeff=frac(r["coeff"]) if "coeff" in r else None,
        )
        for r in doc.get("ramified", [])
    )
    if ("row" in doc) == ("four_points" in doc):
        raise ValueError(f"case {doc['id']!r}: exactly one of 'row' and 'four_points' must name its Table 1 row")
    try:
        indices, correction = (tuple(doc["row"]), LogCombo()) if "row" in doc else _fold_four_points(doc["four_points"])
        row = table1_row(*indices)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"case {doc['id']!r}: {exc.args[0]}") from None
    optimal = row.pet_height() + correction
    if doc.get("printed"):
        label = f"table1:({','.join(map(str, indices))})"
        if label not in PRINTED_DEVIATIONS:
            raise ValueError(f"case {doc['id']!r}: no printed variant of {label} is recorded")
        optimal += PRINTED_DEVIATIONS[label] - row.constant
    return ShimuraCase(
        id=doc["id"],
        field_id=row.field_id,
        ramified=ramified,
        optimal=optimal,
        k_degree=frac(doc["k_degree"]),
        expected_h={int(p): frac(v) for p, v in doc["expected_h"].items()},
        h_scale=frac(doc["h_scale"]) if "h_scale" in doc else None,
    )


@cache
def _builtin() -> dict[str, ShimuraCase]:
    text = resources.files("orbiheight.data").joinpath("shimura_cases.json").read_text()
    return {doc["id"]: _parse_case(doc) for doc in json.loads(text)}


def builtin_cases() -> dict[str, ShimuraCase]:
    """The four shipped cases: modular, disc6, sqrt3, sqrt6."""
    return dict(_builtin())


def get_case(case_id: str) -> ShimuraCase:
    cases = _builtin()
    if case_id not in cases:
        raise KeyError(f"unknown case {case_id!r}; shipped: {sorted(cases)}")
    return cases[case_id]
