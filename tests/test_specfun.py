"""Special-function kernels against independent oracles.

Expected values come from four places only: exact classical identities
(factorials, Bernoulli polynomials), brute-force limits computed inside the
test (Richardson-extrapolated finite differences), the quadrature twin and
the general-s zeta kernel, and mpmath at 30 digits or more, whose
references (P, zeta'(-1, x), ln |l| and the two routes to Q) are written
once in ``mp_refs``.  Nothing is asserted that was not computed here.
"""

import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbiheight import heights, periods, specfun
from orbiheight.heights import h_can, k_semistable
from orbiheight.specfun import (
    EvalResult,
    bernoulli2,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    loggamma_primitive,
    loggamma_ratio_integral,
)
import mp_refs
from ratio_quad import loggamma_ratio_integral_quad

EPS = np.finfo(float).eps


def zeta_prime_m1_oracle() -> float:
    # Richardson-extrapolated central differences of zeta(s, 1) at s = -1
    def d(h: float) -> float:
        return (hurwitz_zeta(-1.0 + h, 1.0).value - hurwitz_zeta(-1.0 - h, 1.0).value) / (2.0 * h)

    h = 1e-3
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def test_bernoulli2():
    assert bernoulli2(1.0).value == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert bernoulli2(0.5).value == pytest.approx(-1.0 / 12.0, abs=1e-16)
    assert bernoulli2(0.0).value == pytest.approx(1.0 / 6.0, abs=1e-16)


def test_hurwitz_zeta_classical_values():
    assert hurwitz_zeta(-1.0, 1.0).value == pytest.approx(-1.0 / 12.0, abs=1e-13)
    assert hurwitz_zeta(-1.0, 0.5).value == pytest.approx(1.0 / 24.0, abs=1e-13)
    assert hurwitz_zeta(2.0, 1.0).value == pytest.approx(math.pi**2 / 6.0, rel=1e-13)
    with pytest.raises(ValueError):
        hurwitz_zeta(1.0, 2.0)
    with pytest.raises(ValueError):
        hurwitz_zeta(2.0, 0.0)


@pytest.mark.parametrize("x", np.linspace(0.01, 2.0, 41).tolist())
def test_hurwitz_zeta_bernoulli_oracles(x):
    # zeta(-1, x) = -B2(x)/2 and zeta(-3, x) = -B4(x)/4, both exact polynomials
    r1 = hurwitz_zeta(-1.0, x)
    b2 = -(x * x - x + 1.0 / 6.0) / 2.0
    assert abs(r1.value - b2) <= max(r1.err, 10.0 * EPS * abs(r1.value))
    r3 = hurwitz_zeta(-3.0, x)
    b4 = -(x**4 - 2.0 * x**3 + x**2 - 1.0 / 30.0) / 4.0
    assert abs(r3.value - b4) <= max(r3.err, 10.0 * EPS * abs(r3.value))


def test_hurwitz_zeta_ds_oracle_and_recurrence():
    oracle = zeta_prime_m1_oracle()
    r = hurwitz_zeta_ds(1.0)
    assert r.value == pytest.approx(oracle, abs=1e-10)
    assert r.value == pytest.approx(-0.1654211437, abs=1e-9)
    # duplication zeta(s, 1/2) = (2^s - 1) zeta(s) at s = -1: zeta'(-1, 1/2) = -(ln 2)/24 - zeta'(-1)/2
    assert hurwitz_zeta_ds(0.5).value == pytest.approx(-math.log(2.0) / 24.0 - oracle / 2.0, abs=1e-10)
    # the recurrence zeta'(-1, x + 1) = zeta'(-1, x) + x ln x no longer extends the kernel past 1
    for x in (2.0, math.nextafter(1.0, 2.0), 0.0, -0.5, math.inf, math.nan):
        with pytest.raises(ValueError):
            hurwitz_zeta_ds(x)


def test_loggamma_primitive():
    with mpmath.workdps(30):
        zp, zp_half = mp_refs.zeta_ds(1), mp_refs.zeta_ds(0.5)
    assert loggamma_primitive(0.0).value == loggamma_primitive(1.0).value
    assert loggamma_primitive(1.0).value == pytest.approx(float(-mpmath.mpf(1) / 12 + zp), abs=1e-15)
    assert loggamma_primitive(0.5).value == pytest.approx(float(mpmath.mpf(1) / 24 + zp_half), abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
@example(0.0)
@example(1.0)
@example(1e-300)
@example(1.0 - 2.0**-53)
def test_loggamma_primitive_error_bound_against_mpmath(x):
    r = loggamma_primitive(x)
    with mpmath.workdps(30):
        assert abs(mpmath.mpf(r.value) - mp_refs.primitive(x)) <= r.err


@settings(max_examples=300, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, exclude_min=True))
@example(5e-324)
@example(1e-310)  # subnormal
@example(1e-300)
@example(math.nextafter(0.5, 0.0))
@example(0.5)
@example(math.nextafter(0.5, 1.0))
@example(1.0 - 2.0**-53)
@example(1.0)
def test_zeta_ds_and_primitive_against_mpmath(x):
    # Both kernels come from the Q and A series.  err bounds the actual error
    # and is not wildly pessimistic: within 10^3 of the actual error, which a
    # double result can promise no better than to half an ulp of itself, or
    # of its largest addend zeta'(-1) or P(1) (both in [1/8, 1/4)) where the
    # sum cancels.
    with mpmath.workdps(30):
        refs = mp_refs.zeta_ds(x), mp_refs.primitive(x)
    for r, ref in zip((hurwitz_zeta_ds(x), loggamma_primitive(x)), refs):
        d = abs(mpmath.mpf(r.value) - ref)
        assert d <= r.err
        assert r.err <= 1e3 * max(float(d), math.ulp(max(abs(r.value), 0.125)) / 2.0) + 4.0 * math.ulp(0.0)


def test_heights_from_q_series_match_general_s_route(monkeypatch):
    # The same height formula, once through the odd-zeta series for
    # Q(x) = P(x) + P(1 - x) and once with Q from the primitive built on the
    # general-s Euler-Maclaurin kernel and mpmath's zeta'(-1, x).  Both sit
    # inside a bracket divided by V, so they agree to 1e-12 before that division.
    rng = np.random.default_rng(2024)
    sample = []
    while len(sample) < 200:
        w = tuple(float(t) for t in rng.uniform(0.0, 1.0, size=3))
        if k_semistable(w) and abs(sum(w) - 2.0) > 1e-3:
            sample.append(w)

    hot = [h_can(w).value for w in sample]

    def general_s_primitive(x):
        t = x if x > 0.0 else 1.0
        with mpmath.workprec(64):  # 19 digits, ample for this 1e-12 comparison
            return hurwitz_zeta(-1.0, t).value + float(mp_refs.zeta_ds(t))

    p1 = general_s_primitive(1.0)

    calls = []

    def general_s_q(x):
        calls.append(x)
        near = min(x, 1.0 - x)
        return general_s_primitive(x) + general_s_primitive(1.0 - x) - 2.0 * p1, 0.0, -math.log(near) if near else math.inf

    # the heights of the hot pass are cached: clear them, or the reference is
    # never called; clear them again after, so that no height built from
    # mpmath serves a later test
    monkeypatch.setattr(heights, "_q", general_s_q)
    heights._signed_height.cache_clear()
    try:
        for w, h in zip(sample, hot):
            assert abs(h_can(w).value - h) <= 1e-12 / min(1.0, abs(sum(w) - 2.0))
    finally:
        heights._signed_height.cache_clear()
    assert {x for w in sample for x in w} <= set(calls)  # every weight went through the reference


def test_zeta_literals_against_mpmath():
    # euler_gamma and 1 - ln(2 pi) are the doubles nearest the true values
    assert specfun._EULER_GAMMA == float(mpmath.euler)
    with mpmath.workdps(40):
        assert specfun._ONE_MINUS_LOG_2PI == float(1 - mpmath.log(2 * mpmath.pi))
    # the even-zeta literals of the A series are G's economized series, each
    # within an ulp of the rebuild, and _A_TRUNC bounds the truncation
    rebuilt, tail = _economized(_g_mp)
    rebuilt_floats = [float(x) for x in rebuilt]
    assert len(specfun._A_COEF_HORNER) == len(rebuilt) == 13, rebuilt_floats
    for literal, ref in zip(specfun._A_COEF_HORNER, rebuilt):
        assert abs(mpmath.mpf(literal) - ref) <= math.ulp(literal), rebuilt_floats
    assert tail <= specfun._A_TRUNC


def _h_mp(t):
    """H(t) = (-ln l(u) - ln u - 2 euler_gamma u)/u^3 at u = sqrt(t), l(u) = Gamma(u)/Gamma(1 - u)."""
    u = mpmath.sqrt(t)
    return -(mp_refs.ln_l(u) + mpmath.log(u) + 2 * mpmath.euler * u) / u**3


def _g_mp(t):
    """G(t) = (A(y)/y - 1 + ln(2 pi y))/t at y = sqrt(t), A(y) = Cl_2(2 pi y)/(2 pi)."""
    y = mpmath.sqrt(t)
    a = mpmath.clsin(2, 2 * mpmath.pi * y) / (2 * mpmath.pi)
    return (a / y - 1 + mpmath.log(2 * mpmath.pi * y)) / t


def _economized(f):
    """The degree-12 Chebyshev truncation of f on [0, 1/4], rebuilt with mpmath.

    f (``_h_mp`` or ``_g_mp``) is interpolated at 64 Chebyshev points at 50
    digits.  Returns the monomial coefficients in t of its first 13 terms,
    t^12 first, and the sum of |c_j| over the Chebyshev coefficients c_j
    with j > 12.
    """
    nodes = 64
    with mpmath.workdps(50):
        thetas = [mpmath.pi * (k + mpmath.mpf(1) / 2) / nodes for k in range(nodes)]
        fs = [f((1 + mpmath.cos(theta)) / 8) for theta in thetas]  # t = (1 + cos theta)/8 on [0, 1/4]
        c = [2 * mpmath.fsum(v * mpmath.cos(j * theta) for v, theta in zip(fs, thetas)) / nodes for j in range(nodes)]
        c[0] /= 2
        # T_j(8t - 1) as monomials in t, lowest first: T_{j+1} = (16t - 2) T_j - T_{j-1}
        ts = [[mpmath.mpf(1)], [mpmath.mpf(-1), mpmath.mpf(8)]]
        while len(ts) < 13:
            cur, prev = ts[-1], ts[-2]
            ts.append([16 * a - 2 * b - p for a, b, p in zip([0, *cur], [*cur, 0], [*prev, 0, 0])])
        mono = [mpmath.fsum(cj * tj[i] for cj, tj in zip(c, ts) if i < len(tj)) for i in range(13)]
        return mono[::-1], mpmath.fsum(abs(x) for x in c[13:])


def test_odd_zeta_literals_are_the_economized_series():
    rebuilt, tail = _economized(_h_mp)
    rebuilt_floats = [float(x) for x in rebuilt]
    assert len(specfun._H_COEF_HORNER) == len(rebuilt) == 13, rebuilt_floats
    for literal, ref in zip(specfun._H_COEF_HORNER, rebuilt):
        assert abs(mpmath.mpf(literal) - ref) <= math.ulp(literal), rebuilt_floats
    # the truncation bounds: |u|^3 times the tail for ln |l| (_H_TRUNC |u|^3,
    # at most 2.6e-17 on |u| <= 1/2), x^4/4 times the tail for Q (_Q_TRUNC x^4)
    assert tail <= specfun._H_TRUNC
    assert tail / 8 <= 2.6e-17
    assert tail / 4 <= specfun._Q_TRUNC


def test_q_coefficients_are_the_shared_literals_over_2j_plus_4():
    # q_j = fl(c_j / (2j + 4)): the double nearest the exact quotient
    assert len(specfun._Q_COEF_HORNER) == len(specfun._H_COEF_HORNER) == 13
    for j, (q, c) in enumerate(zip(reversed(specfun._Q_COEF_HORNER), reversed(specfun._H_COEF_HORNER))):
        exact = Fraction(c) / (2 * j + 4)
        assert abs(Fraction(q) - exact) <= Fraction(math.ulp(q)) / 2, j


def test_periods_sums_the_same_literals():
    assert periods._H_COEF_HORNER is specfun._H_COEF_HORNER


_DENSE_RNG = random.Random(23)
# about 1,000 points: uniform on (0, 1], log-uniform down to the subnormals,
# 1/2 and its float neighbours, 1 - 2^-53 and the smallest subnormal
_Q_DENSE_XS = sorted(
    {*(1.0 - _DENSE_RNG.random() for _ in range(500))}
    | {2.0 ** (-1074.0 * _DENSE_RNG.random()) for _ in range(490)}
    | {0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 1.0 - 2.0**-53, 5e-324}
)


def test_q_against_mpmath_dense():
    # err bounds the actual error and is within 10^3 of it, or of half an
    # ulp of the value (written 500 ulps, which does not underflow to 0 at
    # a subnormal value), plus the 4-ulp floor at 0
    assert len(_Q_DENSE_XS) > 990
    bad = []
    for x in _Q_DENSE_XS:
        value, err, _ = specfun._q(x)
        d = abs(mpmath.mpf(value) - mp_refs.q_by_quadrature(x))
        if not (d <= err <= max(1e3 * float(d), 500.0 * math.ulp(value)) + 4.0 * math.ulp(0.0)):
            bad.append((x, value, err, float(d)))
    assert not bad


_HALF_DOWN, _HALF_UP = math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0)
_UNIT = st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=60, deadline=None)
@given(_UNIT, _UNIT)
@example(0.0, 1.0)
@example(0.0, 0.5)
@example(_HALF_DOWN, _HALF_UP)
@example(_HALF_UP, 0.5)
@example(0.0, 1e-300)
@example(1e-300, 1.0 - 2.0**-53)
@example(1.0 - 2.0**-53, 1.0)
@example(0.0, 5e-324)  # subnormal: the eps-relative rounding bound underflows
def test_loggamma_ratio_integral_against_mpmath_quadrature(a, b):
    r = loggamma_ratio_integral(a, b)
    with mpmath.workdps(40):
        assert abs(mpmath.mpf(r.value) - (mp_refs.q_by_quadrature(b) - mp_refs.q_by_quadrature(a))) <= r.err


@settings(max_examples=300, deadline=None)
@given(_UNIT, _UNIT)
@example(0.0, 1.0)
@example(0.0, 0.5)
@example(_HALF_DOWN, _HALF_UP)
@example(_HALF_UP, 0.5)
@example(0.0, 1e-300)
@example(1e-300, 1.0 - 2.0**-53)
@example(1.0 - 2.0**-53, 1.0)
def test_loggamma_ratio_integral_against_primitive_oracle(a, b):
    # the P route P(b) + P(1-b) - P(a) - P(1-a), with P from mpmath
    r = loggamma_ratio_integral(a, b)
    assert abs(mpmath.mpf(r.value) - (mp_refs.q_by_primitive(b) - mp_refs.q_by_primitive(a))) <= r.err


def test_loggamma_ratio_integral_closed_vs_quadrature():
    assert loggamma_ratio_integral(0.0, 1.0).value == pytest.approx(0.0, abs=1e-13)
    # odd integrand about 1/2
    assert loggamma_ratio_integral_quad(0.25, 0.75).value == pytest.approx(0.0, abs=1e-12)


def test_eval_result_invariants():
    r = hurwitz_zeta(2.0, 1.5)
    assert math.isfinite(r.err) and r.err >= 0.0
    assert float(r) == r.value
    with pytest.raises(ValueError):
        EvalResult(1.0, -1e-3)
