"""Heights of twisted Fermat plane curves and explicit Arakelov-type bounds.

The degree-m Fermat curve is an m-fold cover of the projective line branched
over {0, 1, infinity} with all ramification indices m, so its canonical
height reduces to the three-point formula at weights (1 - 1/m)^3 plus ln m;
a twist by coefficients (a0, a1, a2) adds ((m-3)/2 + 1) (1/m) sum ln |a_i|.

The Arakelov-metric height is then bounded by the canonical height plus an
explicit genus-dependent gap, giving fully explicit Parshin-type bounds
(`arakelov_upper_bound`) that chain as h_can + gap <= first <= second.

The height and the first bound of a degree both start from the diagonal
value f((1-1/m)^3), and a table of degrees asks for both at every m, so
``_diagonal`` computes it once per degree with its err and caches it, up to
1,024 degrees (least recently used out), as ``heights._signed_height``
caches its heights; the terms added to it are computed at each call.

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
from functools import cache, lru_cache

from .heights import _EPS, _height_positive
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
    """Twisted Fermat curve a0 x0^m + a1 x1^m + a2 x2^m = 0, of degree
    m >= 4, where its canonical bundle is ample."""

    m: int
    a: tuple[int, int, int] = (-1, 1, 1)

    def __post_init__(self):
        _check_degree(self.m, 4)
        if len(self.a) != 3:
            raise ValueError(f"a twist has exactly three coefficients, got {len(self.a)}")
        if any(x == 0 for x in self.a):
            raise ValueError("twist coefficients must be nonzero")


@lru_cache(maxsize=1 << 10)
def _diagonal(m: int) -> tuple[float, float]:
    """(value, err) of f((1-1/m)^3) at the exact weight 1 - 1/m (f =
    :func:`h_can_positive`), one entry per degree, bounded like
    ``heights._signed_height``.

    err adds the closed form's and that of rounding t = 1 - 1/m through |f'|.
    On the diagonal V = 3t - 2 >= 1/4 and, with L(x) = ln(Gamma(x)/Gamma(1-x))
    and B = gamma(0, V/2) + 3 gamma(t, 1 - t/2), f' = -3/(2V) - B'/V + 3B/V^2
    for B' = (3/2)(L(V/2) - L(1 - t/2)) - 3 L(t).  There |L(V/2)| <= L(1/8) <
    1.934, |L(1 - t/2)| <= |L(5/8)| < 0.503, 0 <= L(t) - ln(1 - t) < 0.302 and
    0 < B <= B(1) < 2.755, so |f'| < (6.1 + 8.3/V)/V + 3 |ln(1 - t)|/V.  1/m
    and 1 - 1/m each round by at most 2^-54, so t is within delta = 2^-53 of
    1 - 1/m, over which |ln(1 - s)| integrates to at most delta (1 - ln delta)
    < 37.8 delta: t moves f by less than delta 4 (6.1 + 4 (8.3) + 3 (37.8)) =
    6.8e-14.  V >= 1/4 also means the closed form refuses no degree.
    """
    t = 1.0 - 1.0 / m
    value, err = _height_positive((t, t, t), "_diagonal")
    return value, err + 2.0**-53 * 4.0 * (6.1 + 4.0 * 8.3 + 3.0 * 37.8)


def _diagonal_height(m: int, *terms: tuple[float, float]) -> EvalResult:
    """:func:`_diagonal` plus the (value, err) terms, added left to right.

    err adds the terms' and the rounding of each sum.  The height and the
    first Arakelov bound share the cached diagonal of their degree and differ
    in the terms.  A term ln m is off by eps/2 (m as a double) plus an ulp.
    """
    value, err = _diagonal(m)
    for x, e in terms:
        value += x
        err += e + 0.5 * _EPS * abs(value)
    return EvalResult(value, err)


def fermat_h_can(spec: FermatSpec) -> EvalResult:
    """Canonical height of the log canonical bundle of a twisted Fermat curve.

    f(1-1/m, 1-1/m, 1-1/m) + ln m + ((m-3)/2 + 1) (1/m) sum_i ln |a_i|.
    """
    ln_m = math.log(spec.m)
    logs = [math.log(abs(x)) for x in spec.a]
    factor = ((spec.m - 3) / 2.0 + 1.0) / spec.m
    # the factor is off by 2 eps of itself, each log by 2 eps, the fsum and the product by eps/2
    twist = (factor * math.fsum(logs), 5.0 * _EPS * factor * math.fsum(map(abs, logs)))
    return _diagonal_height(spec.m, (ln_m, _EPS * (0.5 + ln_m)), twist)


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

    The second bound is at least -1.137 - 0.019 + 2 ln 4 > 1.6 on every
    admitted degree (eps_m >= -0.019, its minimum, at m = 35), so it agrees
    with h_Arakelov >= 0.  ``epsilon_m`` refuses degrees from 2^511 on.
    """
    eps = epsilon_m(m)
    ln_m = math.log(m)
    # (1/2) ln pi is off by eps/4 + half an ulp; eps_m's terms (at most 1.64 and 0.70) by 3.5 eps
    # and eps/4 + eps of themselves (ln A, the + 1, the division; the log of a correctly rounded
    # A/m^2), and their sum (at most 0.95) by eps/2 of it
    terms = (0.5 * math.log(math.pi), _EPS), (2.0 * ln_m, _EPS * (1.0 + 2.0 * ln_m)), (eps, 8.0 * _EPS)
    first = _diagonal_height(m, *terms)
    second = _second_constant_value() + eps + 2.0 * ln_m
    return ArakelovBounds(epsilon=eps, first=first, second_constant=_SECOND_CONSTANT, second=second)
