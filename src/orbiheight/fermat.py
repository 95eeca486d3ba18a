"""Heights of twisted Fermat plane curves and explicit Arakelov-type bounds.

The degree-m Fermat curve is an m-fold cover of the projective line branched
over {0, 1, infinity} with all ramification indices m, so its canonical
height reduces to the three-point formula at weights (1 - 1/m)^3 plus ln m;
a twist by coefficients (a0, a1, a2) adds ((m-3)/2 + 1) (1/m) sum ln |a_i|.

The Arakelov-metric height is then bounded by the canonical height plus an
explicit genus-dependent gap, giving fully explicit Parshin-type bounds
(`arakelov_upper_bound`) that chain as h_can + gap <= first <= second.

The second (Dedekind-zeta) bound is the first one with f((1-1/m)^3) replaced
by its value at m = 4, which is the largest along the diagonal.  Its
m-independent constant is therefore f((3/4)^3) + (1/2) ln pi, read off the
validated (4,4,4) table row.  The printed constant is smaller by exactly
ln 2, which would put the second bound below the first for every m and below
h_can + gap for m <= 12; it is kept in `tables.PRINTED_DEVIATIONS`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .heights import _height_positive
from .lcombo import LogCombo
from .specfun import EvalResult
from .tables import table1_row

__all__ = [
    "FermatSpec",
    "fermat_h_can",
    "genus",
    "epsilon_m",
    "arakelov_gap",
    "ArakelovBounds",
    "arakelov_upper_bound",
]


# the second bound's m-independent constant, f((3/4)^3) + (1/2) ln pi
_SECOND_CONSTANT = table1_row(4, 4, 4).pet_height() + LogCombo(logs={2: Fraction(3, 2)})


@cache
def _second_constant_value() -> float:
    """The value of _SECOND_CONSTANT, evaluated on first use (it loads the fields)."""
    return _SECOND_CONSTANT.evaluate().value


# the bounds take (m - 1)(m - 2), about 2g, in floats, which overflows from 2^512
_DEGREE_LIMIT = 2**511


def _check_degree(m: int, least: int) -> None:
    """Refuse, with ValueError, a degree that is not an integer with least <= m < 2^511."""
    if not (isinstance(m, int) and least <= m < _DEGREE_LIMIT):
        raise ValueError(f"degree must be an integer at least {least} and below 2^511, got {m!r}")


@dataclass(frozen=True)
class FermatSpec:
    """Twisted Fermat curve a0 x0^m + a1 x1^m + a2 x2^m = 0."""

    m: int
    a: tuple[int, int, int] = (-1, 1, 1)

    def __post_init__(self):
        _check_degree(self.m, 3)
        if len(self.a) != 3:
            raise ValueError(f"a twist has exactly three coefficients, got {len(self.a)}")
        if any(x == 0 for x in self.a):
            raise ValueError("twist coefficients must be nonzero")


def fermat_h_can(spec: FermatSpec) -> EvalResult:
    """Canonical height of the log canonical bundle of a twisted Fermat curve.

    f(1-1/m, 1-1/m, 1-1/m) + ln m + ((m-3)/2 + 1) (1/m) sum_i ln |a_i|,
    requiring m >= 4 so that the canonical bundle is ample.
    """
    _check_degree(spec.m, 4)
    t = 1.0 - 1.0 / spec.m
    base, err = _height_positive((t, t, t), "fermat_h_can")
    twist = ((spec.m - 3) / 2.0 + 1.0) / spec.m * math.fsum(math.log(abs(x)) for x in spec.a)
    return EvalResult(base + math.log(spec.m) + twist, err + 4e-16 * spec.m)


def genus(m: int) -> int:
    """Genus of a smooth degree-m plane curve: (m-1)(m-2)/2."""
    _check_degree(m, 3)
    return (m - 1) * (m - 2) // 2


def epsilon_m(m: int) -> float:
    """Explicit degree-dependent constant entering the Arakelov bound:

        (1/2) (4 ln A + 1) / ((m-1)(m-2)/2 - 1) + (1/2) ln(A / m^2),

    with A = (m-1)(m-2) - 2 = 2g - 2.  Tends to 0 as m grows (from below for
    large m: it decreases through 0 near m = 30 and creeps back up).
    """
    _check_degree(m, 4)
    a = (m - 1) * (m - 2) - 2
    return 0.5 * (4.0 * math.log(a) + 1.0) / ((m - 1) * (m - 2) / 2.0 - 1.0) + 0.5 * math.log(a / m**2)


def arakelov_gap(m: int) -> float:
    """Additive bound on h_Arakelov - h_can for a genus-g(m) curve:

        (1/2) [ (4 ln(2g-2) + 1) / (g-1) + ln(pi (g-1)) ].
    """
    _check_degree(m, 4)
    g = genus(m)
    return 0.5 * ((4.0 * math.log(2 * g - 2) + 1.0) / (g - 1) + math.log(math.pi * (g - 1)))


@dataclass(frozen=True)
class ArakelovBounds:
    """The two explicit upper bounds on the Arakelov height of the degree-m
    Fermat curve, plus the exact constant part of the second one."""

    m: int
    epsilon: float
    first: EvalResult
    second_constant: LogCombo
    second: float


def arakelov_upper_bound(m: int) -> ArakelovBounds:
    """Both explicit upper bounds for h_Arakelov of the Fermat curve.

    first  = f((1-1/m)^3) + (1/2) ln pi + 2 ln m + eps_m   (gamma-based)
    second = -1/2 - (1/12) ln 2 - (1/2) zeta'_{Q(sqrt2)}(-1)/zeta_{Q(sqrt2)}(-1)
             + eps_m + 2 ln m

    `second_constant` is the m-independent part of the second bound as an
    exact combination: f((3/4)^3) + (1/2) ln pi, built as the Petersson height
    of the (4,4,4) `TABLE1` row plus (3/2) ln 2 (h_Pet = f + (1/2) ln(pi V / 2)
    at V = 1/4).  Since f decreases along the diagonal, second - first =
    f((3/4)^3) - f((1-1/m)^3) >= 0.  The printed -13/12 ln 2 is off by -ln 2
    (see `tables.PRINTED_DEVIATIONS`).

    The implied upper bound must be nonnegative (the Arakelov height of a
    relatively ample canonical bundle is >= 0); a negative bound raises,
    signalling inconsistency.  ``epsilon_m`` refuses degrees from 2^511 on.
    """
    eps = epsilon_m(m)
    t = 1.0 - 1.0 / m
    base, err = _height_positive((t, t, t), "arakelov_upper_bound")
    first = EvalResult(base + 0.5 * math.log(math.pi) + 2.0 * math.log(m) + eps, err)
    second = _second_constant_value() + eps + 2.0 * math.log(m)
    if second < 0.0:
        raise ValueError(f"derived Arakelov upper bound is negative at m = {m}: inconsistent inputs")
    return ArakelovBounds(m=m, epsilon=eps, first=first, second_constant=_SECOND_CONSTANT, second=second)
