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
ln Gamma(1 - t) (DLMF 5.7.3) turn Q into one log plus a series in x^2 with
odd zeta values as coefficients, Chebyshev-economized on [0, 1/2] to 13
literals and reflected by Q(x) = Q(1 - x).

``_q``, the float kernel of Q(x) - Q(0), is the one zeta'(-1, x) kernel: the
heights sum seven values of it (and cache the height, not Q),
:mod:`orbiheight.fields` takes L'(-1, chi) from it, and ``_ln_l``
(array form ``periods._log_l``) sums its derivative ln(Gamma(x)/Gamma(1-x)) from
the same 13 odd-zeta literals.  The antisymmetric half A(x) = P(x) - P(1-x) is Clausen's
function Cl_2(2 pi x)/(2 pi), one log (the one ``_q`` takes) plus a series in
x^2 with even zeta values as coefficients, built as Q's is: Chebyshev-economized
on [0, 1/2] to 13 literals.  Q and A together give P and zeta'(-1, x) on
(0, 1] (``loggamma_primitive``, ``hurwitz_zeta_ds``).  The
general-s Euler-Maclaurin kernel ``hurwitz_zeta`` serves only the
``orbiheight specfun`` subcommand, the specfun suite of ``orbiheight verify``
and the tests, as an independent reference.  All are pure functions in plain
``math`` (no numpy), and every public one returns an :class:`EvalResult`
carrying an absolute error estimate.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

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
# H(t) = sum_{k odd >= 3} (2 zeta(k) / k) t^((k - 3)/2), the odd-zeta series
# of both Q and ln |l|: Q'(x) = -ln x - 2 euler_gamma x - x^3 H(x^2) = ln |l(x)|
# on (0, 1/2].  These are the coefficients of t^12 down to t^0 (Horner order)
# of H's degree-12 Chebyshev truncation on [0, 1/4], rebuilt with mpmath in
# tests/test_specfun.py; :mod:`orbiheight.periods` sums the same tuple for
# ln |l|.  H's Chebyshev coefficients c_j decay like 13.9^-j (the
# singularity at t = 1 lies on the ellipse rho = 7 + sqrt(48)), its Taylor
# coefficients like 4^-j on this interval, and sum_{j > 12} |c_j| <= 2.08e-16.
_H_COEF_HORNER = (
    0.39668646501816573, -0.22169242532631409, 0.2308349889639448, 0.05317342992877834, 0.11335473374980447,
    0.1165954775497186, 0.13343020495951433, 0.15385958725874677, 0.18190823843731022, 0.2226685272007511,
    0.288099793589971, 0.4147711020571119, 0.8013712687730631,
)
# The coefficient of -x^(2j+4) in the Q series: H's t^j coefficient over 2j + 4,
# since the integral of u^3 (u^2)^j over [0, x] is x^(2j+4) / (2j + 4).
_Q_COEF_HORNER = tuple(c / (2 * j + 4) for j, c in zip(range(12, -1, -1), _H_COEF_HORNER))
# The same integral bounds the Q series' truncation error by
# (sum_{j > 12} |c_j|) x^4 / 4 <= _Q_TRUNC x^4; ln |l|'s by _H_TRUNC |u|^3.
_H_TRUNC, _Q_TRUNC = 2.08e-16, 5.2e-17
_SUBNORMAL_ULPS = 4.0 * math.ulp(0.0)
# G(t) = sum_{k>=1} zeta(2k) / (k (2k+1)) t^(k-1), the even-zeta series of the
# Clausen half A: A(y) = y (1 - ln 2 pi y + t G(t)) at t = y^2.  As for H, these
# are the coefficients of t^12 down to t^0 of G's degree-12 Chebyshev truncation
# on [0, 1/4], rebuilt with mpmath in tests/test_specfun.py; G's Chebyshev
# coefficients c_j shrink about 16-fold per degree through j = 20, and
# sum_{j > 12} |c_j| <= 6.33e-18 <= _A_TRUNC.
_A_COEF_HORNER = (
    0.013468205664354957, -0.006451242300671631, 0.008584735345237704, 0.0034138305988611014, 0.006106459674196992,
    0.007319511003398231, 0.009527344725091383, 0.012823494800132632, 0.018199907842728253, 0.027891037528325214,
    0.0484449077152007, 0.10823232337110635, 0.5483113556160755,
)
_A_TRUNC = 6.4e-18
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


def bernoulli2(a: float) -> EvalResult:
    """Second Bernoulli polynomial B_2(a) = a^2 - a + 1/6.  err: a*a, the difference,
    the stored 1/6 and the sum round by eps/2 of at most a^2, a^2 + |a|, 1/6 and
    a^2 + |a| + 1/6, which 2 eps (a^2 + |a| + 1/6) covers with the higher orders."""
    v = a * a - a + 1.0 / 6.0
    if not math.isfinite(v):
        raise ValueError(f"bernoulli2({a!r}) cannot be evaluated in double precision")
    return EvalResult(v, 2.0 * _EPS * (a * a + abs(a) + 1.0 / 6.0))


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


def _q(x: float) -> tuple[float, float, float]:
    """(Q(x) - Q(0), absolute error bound, -ln x') for x in [0, 1], Q(x) = P(x) + P(1 - x),
    x' = min(x, 1 - x) the end the log singularity sits at (inf where x' = 0).

    Q' = ln Gamma(x) - ln Gamma(1 - x) = -ln x - 2 euler_gamma x - x^3 H(x^2)
    on (0, 1) (DLMF 5.7.3), so for 0 <= x <= 1/2

        Q(x) - Q(0) = x - x ln x - euler_gamma x^2 - sum_j q_j x^(2j+4),

    with q_j = c_j / (2j + 4) from the 13 economized coefficients c_j of H on
    [0, 1/4] (``_H_COEF_HORNER``), summed as one Horner expression in
    t = x^2 <= 1/4; x > 1/2 uses Q(x) = Q(1 - x), where 1 - x is exact.  err:
    4 eps (x - x ln x) bounds the rounding of the log, the products and the
    two subtractions, since every partial sum and euler_gamma x^2 are at most
    x - x ln x.  40 eps series bounds the series' rounding, which is at most
    21.5 eps sum_j |q_j| t^(j+2): 12 eps for the 24 roundings of the 12
    Horner steps, 8 eps for the rounding of t (raised to at most t^12), of
    t^2 and of the last product, and 1.5 eps for each literal (within an ulp
    of c_j) and its division.  Only q_11 is negative, so sum_j |q_j| t^j
    exceeds the signed sum by 2 |q_11| t^11, under 2e-8 of it at t = 1/4 and
    less below; the bound in terms of the signed series holds.  _Q_TRUNC x^4
    bounds the truncation of H; 4 ulps of 0 the same roundings where x is
    subnormal and the eps terms underflow.  The heights' err reuses -ln x
    for the input rounding of x, so each point takes one log.  Plain floats
    keep result objects off the per-point path.  It has no cache: the
    heights cache the height they build from it, and its other callers
    run once per field or per point.
    """
    if x > 0.5:
        x = 1.0 - x
    if x == 0.0:
        return 0.0, 0.0, math.inf
    q12, q11, q10, q9, q8, q7, q6, q5, q4, q3, q2, q1, q0 = _Q_COEF_HORNER
    t = x * x
    t2 = t * t
    series = (
        ((((((((((((q12 * t + q11) * t + q10) * t + q9) * t + q8) * t + q7) * t + q6) * t + q5) * t + q4) * t + q3) * t + q2) * t + q1) * t + q0)
        * t2
    )
    log_x = math.log(x)
    main = x - x * log_x
    err = _EPS * (4.0 * main + 40.0 * series) + _Q_TRUNC * t2 + _SUBNORMAL_ULPS
    return main - _EULER_GAMMA * t - series, err, -log_x


def _ln_l(x: float) -> tuple[float, float]:
    """(ln |l(x)|, absolute error bound), l(x) = Gamma(x)/Gamma(1 - x) = exp Q'(x), for
    x in (-1/2, 1) minus 0: with u = x, or u = 1 - x (exact) above 1/2, where l(x) = 1/l(u),
    ln |l(u)| = -ln |u| - s, s = u (2 euler_gamma + t H(t)), t = u^2, H as in ``_q``.
    err: _H_TRUNC |u|^3 the truncation of H; eps |ln u| the log; 5 eps |s| the series, as
    the 24 roundings of the 12 Horner steps, that of t (up to t^13), the literals and the
    product by t move t H by 19.5 eps of it, t H <= 0.168 (2 euler_gamma + t H), and
    2 euler_gamma, the sum and the product by u add eps/2 each; eps |value| / 2 the
    difference; 4 ulps of 0 a subnormal s.  l < 0 on (-1/2, 0); no sign is returned."""
    u = 1.0 - x if x > 0.5 else x
    c12, c11, c10, c9, c8, c7, c6, c5, c4, c3, c2, c1, c0 = _H_COEF_HORNER
    t = u * u
    h = (((((((((((c12 * t + c11) * t + c10) * t + c9) * t + c8) * t + c7) * t + c6) * t + c5) * t + c4) * t + c3) * t + c2) * t + c1) * t + c0
    s = (h * t + 2.0 * _EULER_GAMMA) * u
    log_u = math.log(abs(u))
    v = -log_u - s
    err = _EPS * (abs(log_u) + 5.0 * abs(s) + 0.5 * abs(v)) + _H_TRUNC * abs(u) * t + _SUBNORMAL_ULPS
    return (-v if x > 0.5 else v), err


def _zeta_prime_m1() -> tuple[float, float]:
    """(zeta'(-1), absolute error bound) from the Q series.

    zeta(s, 1/2) = (2^s - 1) zeta(s) gives Q(1/2) - Q(0) = 1/4 - (ln 2)/12
    - 3 zeta'(-1); err adds the Q bound to the roundings of the sum.
    """
    q, e, _ = _q(0.5)
    return (0.25 - math.log(2.0) / 12.0 - q) / 3.0, e / 3.0 + 2.0 * _EPS * (0.25 + abs(q))


_ZETA_PRIME_M1 = _zeta_prime_m1()  # taken once: L'(-1, 1) and every P(x) add it


def _primitive_kernel(x: float, b: float) -> EvalResult:
    """zeta'(-1) + (2 (P(x) - P(1)) + b) / 2 for x in (0, 1], P = loggamma_primitive:
    b = B_2(x) - 1/6 gives zeta'(-1, x) = P(x) + B_2(x)/2 and b = -1/6 gives
    P(x), since P(1) = zeta'(-1) - 1/12.

    With y = min(x, 1 - x) <= 1/2, 2 P(x) = Q(y) + A(y) for x <= 1/2 and
    Q(y) - A(y) for x > 1/2, where Q(0) = 2 P(1) and the antisymmetric half
    A(y) = P(y) - P(1 - y) has A' = -ln(2 sin(pi y)) and A(0) = 0, so that
    A(y) = Cl_2(2 pi y) / (2 pi).  The product formula for sin(pi y)/(pi y)
    gives

        A(y) = y - y ln(2 pi y) + y sum_{k>=1} zeta(2k) y^(2k) / (k (2k+1))
             = y (1 - ln(2 pi y) + t G(t)),   t = y^2 <= 1/4,

    with G summed as ``_q`` sums H: one Horner expression over its 13
    economized coefficients (``_A_COEF_HORNER``), with the -ln y that _q
    returns.  err: the bounds of zeta'(-1) and of _q; 4 eps y (1 - ln y +
    series) the rounding.  Of y (1 - ln y + series) in units of eps y: the
    log rounds by at most -ln y, the literal 1 - ln 2pi by 1/2, the two sums
    and the product by y by (1 - ln y + series)/2 each, and the series by
    20 eps of sum_j |g_j| t^(j+1): 12 eps for the 24 roundings of the 12
    Horner steps, 6.5 eps for the rounding of t (raised to at most t^13),
    eps for the literals (each within an ulp of g_j) and eps/2 for the
    product by t.  Only g_11 is negative, so that sum exceeds the signed
    series by 2 |g_11| t^12, under 1e-8 of it; with series <= ln pi - 1 <
    0.145 and -ln y >= ln 2 the total stays below 4 (1 - ln y + series).
    _A_TRUNC y t bounds the truncation of G; 4 ulps of 0 the roundings where
    y is subnormal; eps |b| the rounding of b; and half an eps of each of
    the three sums.
    """
    z, err = _ZETA_PRIME_M1
    y = x if x <= 0.5 else 1.0 - x
    d = 0.0
    if y > 0.0:
        q, eq, neg_log_y = _q(y)
        g12, g11, g10, g9, g8, g7, g6, g5, g4, g3, g2, g1, g0 = _A_COEF_HORNER
        t = y * y
        series = (
            ((((((((((((g12 * t + g11) * t + g10) * t + g9) * t + g8) * t + g7) * t + g6) * t + g5) * t + g4) * t + g3) * t + g2) * t + g1) * t + g0)
            * t
        )
        a = y * (neg_log_y + _ONE_MINUS_LOG_2PI + series)
        d = q + a if x <= 0.5 else q - a
        err += 0.5 * (eq + 4.0 * _EPS * y * (neg_log_y + 1.0 + series) + _A_TRUNC * y * t + _SUBNORMAL_ULPS)
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
