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

``_q``, the float kernel of Q(x) - Q(0), is the one zeta'(-1, x) kernel in
production: the heights sum it, :mod:`orbiheight.fields` takes L'(-1, chi)
from it, and the period route sums its derivative ln(Gamma(x)/Gamma(1-x))
from the same odd-zeta literals.  The Euler-Maclaurin kernels
(``hurwitz_zeta``, ``hurwitz_zeta_ds``, ``loggamma_primitive``), ``log_gamma``
and ``digamma`` serve only the ``orbiheight specfun`` subcommand, the specfun
suite of ``orbiheight verify`` and the tests, as independent references.  All
are pure functions in plain ``math`` (no numpy), and every public one but
``bernoulli2`` returns an :class:`EvalResult` carrying an absolute error
estimate; ``bernoulli2`` returns a float, which the ``orbiheight specfun``
subcommand wraps with its rounding bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

__all__ = [
    "EvalResult",
    "log_gamma",
    "digamma",
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
# B_2j (2j-3)!/(2j)! for j = 2, ..., 13: the coefficients of -y^(2-2j) in the
# s-derivative of the Euler-Maclaurin tail at s = -1.
_DS_COEF = [float(b * math.factorial(2 * j - 3) / math.factorial(2 * j)) for j, b in enumerate(_BERNOULLI_EVEN[1:], start=2)]
_DS_COEF_HORNER = _DS_COEF[-2::-1]  # j = 12 down to 2; j = 13 only feeds the error estimate

# Shift the argument until x + M >= _SHIFT_TARGET, then use Bernoulli terms
# through B_24 (the B_26 entry only feeds the error estimate).
_SHIFT_TARGET = 12.0
_N_TAIL = 12
# B_2j/(2j) for j = _N_TAIL down to 1: the coefficients of y^(-2j) in the
# asymptotic series of digamma (DLMF 5.11.2), in Horner order.
_PSI_COEF_HORNER = [float(b / (2 * j)) for j, b in enumerate(_BERNOULLI_EVEN[:_N_TAIL], start=1)][::-1]

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


def _finite(v: float, name: str, x: float) -> float:
    """v itself, or ValueError when name(x) overflowed double precision."""
    if not math.isfinite(v):
        raise ValueError(f"{name}({x!r}) cannot be evaluated in double precision")
    return v


def log_gamma(x: float) -> EvalResult:
    """ln Gamma(x) for x > 0, by math.lgamma.

    Its Lanczos sum loses up to about 7 eps max(1, |ln Gamma|) for x < 4,
    where its terms are larger than the result; err allows 16.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"log_gamma requires finite x > 0, got {x!r}")
    try:
        v = math.lgamma(x)
    except OverflowError:  # from x of about 2.6e305
        v = math.inf
    v = _finite(v, "log_gamma", x)
    return EvalResult(v, 16.0 * _EPS * max(1.0, abs(v)))


def digamma(x: float) -> EvalResult:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0.

    The recurrence psi(x) = psi(x + 1) - 1/x shifts the argument to
    y = x + M >= 12, where the asymptotic series

        psi(y) = ln y - 1/(2y) - sum_{j>=1} B_2j / (2j y^(2j))

    (DLMF 5.11.2) is summed through B_24.  math.fsum adds the terms after
    ln y with one rounding, so the cancellation near the root of psi costs
    little more than the rounding of ln y.
    """
    if not (math.isfinite(x) and x > 0.0):
        raise ValueError(f"digamma requires finite x > 0, got {x!r}")
    m, y = _em_split(x)
    iy2 = 1.0 / (y * y)
    tail = 0.0
    for c in _PSI_COEF_HORNER:
        tail = (tail + c) * iy2
    v = math.log(y) - math.fsum([0.5 / y, tail, *[1.0 / (x + n) for n in range(m)]])
    v = _finite(v, "digamma", x)
    return EvalResult(v, 4.0 * _EPS * max(1.0, abs(v)))


def bernoulli2(a: float) -> float:
    """Second Bernoulli polynomial B_2(a) = a^2 - a + 1/6."""
    return _finite(a * a - a + 1.0 / 6.0, "bernoulli2", a)


def _em_split(x: float) -> tuple[int, float]:
    """Number of explicitly summed terms M and the shifted point y = x + M."""
    m = max(0, math.ceil(_SHIFT_TARGET - x))
    return m, x + m


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

    m, y = _em_split(x)
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


def _zeta_ds_m1(x: float) -> tuple[float, float]:
    """(d/ds zeta(s, x) at s = -1, absolute error bound) for x > 0; see hurwitz_zeta_ds."""
    m, y = _em_split(x)
    head = 0.0
    for n in range(m):
        t = x + n
        head -= t * math.log(t)
    ly = math.log(y)
    main = y * y * (0.5 * ly - 0.25)
    iy2 = 1.0 / (y * y)
    tail = 0.0  # sum over j = 2.._N_TAIL of c_j y^(2-2j), by Horner in 1/y^2
    for c in _DS_COEF_HORNER:
        tail = (tail + c) * iy2
    total = head + main - 0.5 * y * ly + (1.0 + ly) / 12.0 - tail
    omitted = abs(_DS_COEF[-1]) * iy2**_N_TAIL
    return total, omitted + 8.0 * _EPS * (abs(head) + abs(main)) * (m + 4)


def hurwitz_zeta_ds(x: float) -> EvalResult:
    """d/ds zeta(s, x) at s = -1, for x > 0.

    The Euler-Maclaurin expansion is differentiated term by term in s and
    evaluated at s = -1 (no finite differences).  With y = x + M:

        -sum_{n<M} (n+x) ln(n+x)  +  y^2 (ln y / 2 - 1/4)  -  (y ln y)/2
        + (1 + ln y)/12  -  sum_{j>=2} B_{2j}/(2j)! (2j-3)! y^{2-2j}

    using that the Pochhammer factor s(s+1)...(s+2j-2) vanishes at s = -1
    for j >= 2 while its s-derivative there equals -(2j-3)!.
    """
    if not math.isfinite(x):
        raise ValueError("hurwitz_zeta_ds requires a finite argument")
    if x <= 0.0:
        raise ValueError(f"hurwitz_zeta_ds requires x > 0, got {x!r}")
    value, err = _zeta_ds_m1(x)
    return EvalResult(_finite(value, "hurwitz_zeta_ds", x), err)


def loggamma_primitive(x: float) -> EvalResult:
    """zeta(-1, x) + d/ds zeta(s, x)|_{s=-1}, continued to x = 0 by the value at 1.

    On (0, 1) its x-derivative is ln Gamma(x) - (1/2) ln 2pi, so differences of
    this function integrate ln Gamma exactly.  Weights equal to 1 (cusps) use
    the x = 0 continuation, which keeps the height formulas uniform.
    zeta(-1, x) = -B_2(x)/2 exactly, so only the s-derivative needs the
    Euler-Maclaurin sum; err is its truncation and rounding bound, about
    1e-11, plus 4 eps for the Bernoulli term.  The heights do not call it:
    it is the reference the Q series of :func:`loggamma_ratio_integral` is
    tested against.
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"loggamma_primitive is defined on [0, 1], got {x!r}")
    if x == 0.0:
        x = 1.0
    ds, err = _zeta_ds_m1(x)
    return EvalResult(ds - 0.5 * bernoulli2(x), err + 4.0 * _EPS)


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
