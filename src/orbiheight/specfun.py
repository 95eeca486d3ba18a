"""High-accuracy real special functions used by the height formulas.

The analytic backbone is the Hurwitz zeta function

    zeta(s, x) = sum_{n>=0} (n + x)^(-s),   Re s > 1,

and its s-derivative at s = -1.  The combination

    loggamma_primitive(x) = zeta(-1, x) + d/ds zeta(s, x)|_{s=-1}

is an antiderivative of ln Gamma(x) - (1/2) ln 2pi on (0, 1), which is what
makes the closed-form height formulas on the projective line possible: the
integral of ln(Gamma(x)/Gamma(1-x)) over [a, b] is Q(b) - Q(a) with the
symmetric sum Q(x) = P(x) + P(1-x), so it collapses to two evaluations of Q
(``loggamma_ratio_integral``).  The Maclaurin series of ln Gamma(1 + t) and
ln Gamma(1 - t) (DLMF 5.7.3) turn Q into one log plus a short series in x^2
with odd zeta values as coefficients, summed on [0, 1/2] and reflected by
Q(x) = Q(1 - x).

``_q``, the float kernel of Q(x) - Q(0), is the one zeta'(-1, x) kernel: the
heights sum it, :mod:`orbiheight.fields` takes L'(-1, chi) from it, and the
period route sums its derivative ln(Gamma(x)/Gamma(1-x)) from the same
odd-zeta literals.  The antisymmetric half A(x) = P(x) - P(1-x) is Clausen's
function Cl_2(2 pi x)/(2 pi), one log (the one ``_q`` takes) plus a series in
x^2 with even zeta values as coefficients; Q and A together give P and
zeta'(-1, x) on (0, 1] (``loggamma_primitive``, ``hurwitz_zeta_ds``).  The
general-s Euler-Maclaurin kernel ``hurwitz_zeta`` serves only the
``orbiheight specfun`` subcommand, the specfun suite of ``orbiheight verify``
and the tests, as an independent reference.  All are pure functions in plain
``math`` (no numpy), and every public one but ``bernoulli2`` returns an
:class:`EvalResult` carrying an absolute error estimate; ``bernoulli2``
returns a float, which the ``orbiheight specfun`` subcommand wraps with its
rounding bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "EvalResult",
    "bernoulli2",
    "hurwitz_zeta",
    "hurwitz_zeta_ds",
    "loggamma_primitive",
    "loggamma_ratio_integral",
]

_EPS = sys.float_info.epsilon

# B_2, B_4, ..., B_26 (even-index Bernoulli numbers, exact).
_BERNOULLI_EVEN = [
    Fraction(1, 6),
    Fraction(-1, 30),
    Fraction(1, 42),
    Fraction(-1, 30),
    Fraction(5, 66),
    Fraction(-691, 2730),
    Fraction(7, 6),
    Fraction(-3617, 510),
    Fraction(43867, 798),
    Fraction(-174611, 330),
    Fraction(854513, 138),
    Fraction(-236364091, 2730),
    Fraction(8553103, 6),
]
_B_OVER_FACT = [float(b) / math.factorial(2 * j) for j, b in enumerate(_BERNOULLI_EVEN, start=1)]

# Shift the argument until x + M >= _SHIFT_TARGET, then use Bernoulli terms
# through B_24 (the B_26 entry only feeds the error estimate).
_SHIFT_TARGET = 12.0
_N_TAIL = 12

_EULER_GAMMA = 0.5772156649015329
# zeta(3), zeta(5), ..., zeta(45), each the double nearest the true value.
_ZETA_ODD = (
    1.2020569031595942,
    1.03692775514337,
    1.008349277381923,
    1.0020083928260821,
    1.0004941886041194,
    1.0001227133475785,
    1.000030588236307,
    1.0000076371976379,
    1.0000019082127165,
    1.0000004769329869,
    1.000000119219926,
    1.0000000298035034,
    1.0000000074507118,
    1.0000000018626598,
    1.0000000004656628,
    1.0000000001164155,
    1.0000000000291038,
    1.000000000007276,
    1.000000000001819,
    1.0000000000004547,
    1.0000000000001137,
    1.0000000000000284,
)
# 2 zeta(k) / (k (k+1)), the coefficient of -x^(k+1) in the Q series, for odd
# k = 45 down to 3: Horner order in x^2.
_Q_COEF_HORNER = [2.0 * z / (k * (k + 1)) for k, z in zip(range(3, 47, 2), _ZETA_ODD)][::-1]
# On [0, 1/2] the omitted terms k >= 47 sum to at most _Q_TAIL x^48: the first,
# 2 zeta(47) / (47 * 48) with zeta(47) < 1 + 1e-14, over 1 - x^2 >= 3/4.
_Q_TAIL = 8.0 / (3.0 * 47 * 48) * (1.0 + 1e-14)
_SUBNORMAL_ULPS = 4.0 * math.ulp(0.0)
# zeta(2), zeta(4), ..., zeta(44), each the double nearest the true value.
_ZETA_EVEN = (
    1.6449340668482264,
    1.0823232337111381,
    1.0173430619844492,
    1.0040773561979444,
    1.000994575127818,
    1.000246086553308,
    1.0000612481350588,
    1.0000152822594086,
    1.000003817293265,
    1.0000009539620338,
    1.0000002384505027,
    1.000000059608189,
    1.0000000149015549,
    1.000000003725334,
    1.0000000009313275,
    1.000000000232831,
    1.0000000000582077,
    1.000000000014552,
    1.000000000003638,
    1.0000000000009095,
    1.0000000000002274,
    1.0000000000000568,
)
# zeta(2k) / (k (2k+1)), the coefficient of x^(2k+1) in the A series, for
# k = 22 down to 1: Horner order in x^2.
_A_COEF_HORNER = [z / (k * (2 * k + 1)) for k, z in enumerate(_ZETA_EVEN, start=1)][::-1]
# On [0, 1/2] the omitted terms k >= 23 sum to at most _A_TAIL x^47: the first,
# zeta(46) / (23 * 47) with zeta(46) < 1 + 1e-13, over 1 - x^2 >= 3/4.
_A_TAIL = 4.0 / (3.0 * 23 * 47) * (1.0 + 1e-13)
_ONE_MINUS_LOG_2PI = -0.8378770664093455  # 1 - ln(2 pi), the double nearest


@dataclass(frozen=True)
class EvalResult:
    """A double-precision value together with an absolute error estimate."""

    value: float
    err: float

    def __post_init__(self):
        if math.isfinite(self.value) and not (math.isfinite(self.err) and self.err >= 0.0):
            raise ValueError(f"invalid error estimate {self.err!r} for finite value")

    def __float__(self) -> float:
        return self.value


def bernoulli2(a: float) -> float:
    """Second Bernoulli polynomial B_2(a) = a^2 - a + 1/6."""
    v = a * a - a + 1.0 / 6.0
    if not math.isfinite(v):
        raise ValueError(f"bernoulli2({a!r}) cannot be evaluated in double precision")
    return v


def hurwitz_zeta(s: float, x: float) -> EvalResult:
    """Analytically continued Hurwitz zeta zeta(s, x), s != 1, x > 0.

    Euler-Maclaurin with the argument shifted to x + M >= 12 and correction
    terms through B_24; the reported error is the first omitted term plus a
    rounding floor.  The height formulas need only s = -1, where
    zeta(-1, x) = -B_2(x)/2 exactly (:func:`bernoulli2`); this general-s
    kernel is the independent reference the tests check that against.
    """
    if not (math.isfinite(s) and math.isfinite(x)):
        raise ValueError("hurwitz_zeta requires finite arguments")
    if s == 1.0:
        raise ValueError("hurwitz_zeta has a pole at s = 1")
    if x <= 0.0:
        raise ValueError(f"hurwitz_zeta requires x > 0, got {x!r}")

    m = max(0, math.ceil(_SHIFT_TARGET - x))  # explicitly summed terms
    y = x + m
    try:
        head = sum((x + n) ** -s for n in range(m))
        ly = math.log(y)
        main = math.exp((1.0 - s) * ly) / (s - 1.0)
        half = 0.5 * math.exp(-s * ly)
        total = head + main + half
        poch = s  # the Pochhammer factor s (s+1) ... (s+2j-2)
        for j in range(1, _N_TAIL + 1):
            total += _B_OVER_FACT[j - 1] * poch * math.exp((-s - 2 * j + 1) * ly)
            poch *= (s + 2 * j - 1) * (s + 2 * j)
        # First omitted term (j = _N_TAIL + 1) bounds the truncation error.
        j = _N_TAIL + 1
        omitted = abs(_B_OVER_FACT[j - 1] * poch * math.exp((-s - 2 * j + 1) * ly))
    except OverflowError:
        total = math.inf
    if not math.isfinite(total):
        raise ValueError(f"hurwitz_zeta({s!r}, {x!r}) cannot be evaluated in double precision")
    scale = max(abs(head), abs(main), abs(half), abs(total))
    err = omitted + 8.0 * _EPS * scale * (m + 4)
    return EvalResult(total, err)


@lru_cache(maxsize=1 << 12)
def _q(x: float) -> tuple[float, float, float]:
    """(Q(x) - Q(0), absolute error bound, -ln x') for x in [0, 1], Q(x) = P(x) + P(1 - x),
    x' = min(x, 1 - x) the end the log singularity sits at (inf where x' = 0).

    Q' = ln Gamma(x) - ln Gamma(1 - x) = -ln x - 2 euler_gamma x
    - 2 sum_{k odd >= 3} zeta(k) x^k / k on (0, 1) (DLMF 5.7.3), so for
    0 <= x <= 1/2

        Q(x) - Q(0) = x - x ln x - euler_gamma x^2 - 2 sum_{k odd >= 3} zeta(k) x^(k+1) / (k (k+1)),

    summed through k = 45 by Horner in x^2 <= 1/4; x > 1/2 uses
    Q(x) = Q(1 - x), where 1 - x is exact.  err: 4 eps (x - x ln x) bounds the
    rounding of the log, the products and the two subtractions, since every
    partial sum and euler_gamma x^2 are at most x - x ln x; 40 eps the
    series' Horner steps and rounded coefficients; _Q_TAIL x^48 the omitted
    terms; 4 ulps of 0 the same roundings where x is subnormal and the eps
    terms underflow.  The heights' err reuses -ln x for the input rounding of
    x, so each point takes one log.  Plain floats keep result objects off the
    per-point path; the cache serves repeated weights (grids, tables), not a
    sweep of fresh ones.
    """
    if x > 0.5:
        x = 1.0 - x
    if x == 0.0:
        return 0.0, 0.0, math.inf
    x2 = x * x
    series = 0.0
    for c in _Q_COEF_HORNER:
        series = series * x2 + c
    series *= x2 * x2
    log_x = math.log(x)
    main = x - x * log_x
    err = _EPS * (4.0 * main + 40.0 * series) + _Q_TAIL * x2**24 + _SUBNORMAL_ULPS
    return main - _EULER_GAMMA * x2 - series, err, -log_x


def _zeta_prime_m1() -> tuple[float, float]:
    """(zeta'(-1), absolute error bound) from the Q series.

    zeta(s, 1/2) = (2^s - 1) zeta(s) gives Q(1/2) - Q(0) = 1/4 - (ln 2)/12
    - 3 zeta'(-1); err adds the Q bound to the roundings of the sum.
    """
    q, e, _ = _q(0.5)
    return (0.25 - math.log(2.0) / 12.0 - q) / 3.0, e / 3.0 + 2.0 * _EPS * (0.25 + abs(q))


def _primitive_kernel(x: float, b: float) -> EvalResult:
    """zeta'(-1) + (2 (P(x) - P(1)) + b) / 2 for x in (0, 1], P = loggamma_primitive:
    b = B_2(x) - 1/6 gives zeta'(-1, x) = P(x) + B_2(x)/2 and b = -1/6 gives
    P(x), since P(1) = zeta'(-1) - 1/12.

    With y = min(x, 1 - x) <= 1/2, 2 P(x) = Q(y) + A(y) for x <= 1/2 and
    Q(y) - A(y) for x > 1/2, where Q(0) = 2 P(1) and the antisymmetric half
    A(y) = P(y) - P(1 - y) has A' = -ln(2 sin(pi y)) and A(0) = 0, so that
    A(y) = Cl_2(2 pi y) / (2 pi).  The product formula for sin(pi y)/(pi y)
    gives

        A(y) = y - y ln(2 pi y) + y sum_{k>=1} zeta(2k) y^(2k) / (k (2k+1)),

    summed through k = 22 by Horner in y^2 <= 1/4, with the -ln y that _q
    returns.  err: the bounds of zeta'(-1) and of _q; 4 eps y (1 - ln y +
    series) the rounding of the log, of the literals 1 - ln 2pi and
    zeta(2k) / (k (2k+1)), of the Horner steps, the sums and the product by
    y; _A_TAIL y^47 the omitted terms; 4 ulps of 0 where y is subnormal;
    eps |b| the rounding of b; and half an eps of each of the three sums.
    """
    z, err = _zeta_prime_m1()
    y = x if x <= 0.5 else 1.0 - x
    d = 0.0
    if y > 0.0:
        q, eq, neg_log_y = _q(y)
        y2 = y * y
        series = 0.0
        for c in _A_COEF_HORNER:
            series = series * y2 + c
        series *= y2
        a = y * (neg_log_y + _ONE_MINUS_LOG_2PI + series)
        d = q + a if x <= 0.5 else q - a
        err += 0.5 * (eq + 4.0 * _EPS * y * (neg_log_y + 1.0 + series) + _A_TAIL * y * y2**23 + _SUBNORMAL_ULPS)
    s = d + b
    v = z + 0.5 * s
    return EvalResult(v, err + 0.5 * _EPS * (abs(d) + abs(b) + abs(s) + abs(v)))


def hurwitz_zeta_ds(x: float) -> EvalResult:
    """d/ds zeta(s, x) at s = -1, for 0 < x <= 1, as P(x) + B_2(x)/2 from the Q and A series."""
    if not (0.0 < x <= 1.0):
        raise ValueError(f"hurwitz_zeta_ds requires 0 < x <= 1, got {x!r}")
    return _primitive_kernel(x, x * (x - 1.0))


def loggamma_primitive(x: float) -> EvalResult:
    """zeta(-1, x) + d/ds zeta(s, x)|_{s=-1}, continued to x = 0 by the value at 1.

    On (0, 1) its x-derivative is ln Gamma(x) - (1/2) ln 2pi, so differences of
    this function integrate ln Gamma exactly.  Weights equal to 1 (cusps) use
    the x = 0 continuation, which keeps the height formulas uniform.  The
    heights do not call it: they take the differences Q(b) - Q(a) of
    :func:`loggamma_ratio_integral` directly.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"loggamma_primitive is defined on [0, 1], got {x!r}")
    return _primitive_kernel(x or 1.0, -1.0 / 6.0)


def loggamma_ratio_integral(a: float, b: float) -> EvalResult:
    """Closed form of the integral of ln(Gamma(x)/Gamma(1-x)) over [a, b].

    Equals Q(b) - Q(a) for Q(x) = P(x) + P(1-x), P = loggamma_primitive, with
    Q from its odd-zeta series; endpoints 0 and 1 are allowed (the log
    singularity is integrable).  err is the two series bounds plus the
    rounding of the difference.
    """
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"arguments must lie in [0, 1], got {a!r}, {b!r}")
    qb, eb, _ = _q(b)
    qa, ea, _ = _q(a)
    d = qb - qa
    return EvalResult(d, eb + ea + 0.5 * _EPS * abs(d))
