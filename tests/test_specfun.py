"""Special-function kernels against independent oracles.

Expected values come from four places only: exact classical identities
(factorials, Bernoulli polynomials), brute-force limits computed inside the
test (Richardson-extrapolated finite differences), the quadrature twin and
the general-s zeta kernel, and mpmath at 30 digits or more.
Nothing is asserted that was not computed here.
"""

import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbiheight import heights, specfun
from orbiheight.heights import h_can, k_semistable
from orbiheight.specfun import (
    EvalResult,
    bernoulli2,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    loggamma_primitive,
    loggamma_ratio_integral,
)
from ratio_quad import loggamma_ratio_integral_quad

EPS = np.finfo(float).eps


def zeta_ds_mp(x: float) -> mpmath.mpf:
    """d/ds zeta(s, x) at s = -1, by mpmath at 30 digits."""
    with mpmath.workdps(30):
        return mpmath.zeta(-1, mpmath.mpf(x), 1)


def primitive_mp(x) -> mpmath.mpf:
    """P(x) = zeta(-1, x) + zeta'(-1, x) = -B_2(x)/2 + zeta'(-1, x) by mpmath at
    its working precision, continued to x = 0 by P(1)."""
    t = mpmath.mpf(x) if x > 0 else mpmath.mpf(1)
    return -(t * t - t + mpmath.mpf(1) / 6) / 2 + mpmath.zeta(-1, t, 1)


@functools.cache
def q_by_primitive_mp(x: float) -> mpmath.mpf:
    """Q(x) - Q(0) = P(y) + P(1 - y) - 2 P(1), y = min(x, 1 - x), by mpmath
    with 30 digits beyond the cancellation: the precision holds 1 - y exactly.
    It is rounded up to a multiple of 128 bits, so that mpmath reuses the
    Bernoulli numbers it caches per precision."""
    y = min(x, 1.0 - x)  # exact where x > 1/2
    prec = 128 * math.ceil((100 + max(0, -math.frexp(y)[1])) / 128)
    with mpmath.workprec(prec):
        return primitive_mp(y) + primitive_mp(1 - mpmath.mpf(y)) - 2 * _primitive_one_mp(prec)


@functools.cache
def _primitive_one_mp(prec: int) -> mpmath.mpf:
    with mpmath.workprec(prec):
        return primitive_mp(1)


def zeta_prime_m1_oracle() -> float:
    # Richardson-extrapolated central differences of zeta(s, 1) at s = -1
    def d(h: float) -> float:
        return (hurwitz_zeta(-1.0 + h, 1.0).value - hurwitz_zeta(-1.0 - h, 1.0).value) / (2.0 * h)

    h = 1e-3
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def test_bernoulli2():
    assert bernoulli2(1.0) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert bernoulli2(0.5) == pytest.approx(-1.0 / 12.0, abs=1e-16)
    assert bernoulli2(0.0) == pytest.approx(1.0 / 6.0, abs=1e-16)


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
    zp = zeta_ds_mp(1.0)
    assert loggamma_primitive(0.0).value == loggamma_primitive(1.0).value
    assert loggamma_primitive(1.0).value == pytest.approx(float(-mpmath.mpf(1) / 12 + zp), abs=1e-15)
    assert loggamma_primitive(0.5).value == pytest.approx(float(mpmath.mpf(1) / 24 + zeta_ds_mp(0.5)), abs=1e-15)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
@example(0.0)
@example(1.0)
@example(1e-300)
@example(1.0 - 2.0**-53)
def test_loggamma_primitive_error_bound_against_mpmath(x):
    r = loggamma_primitive(x)
    with mpmath.workdps(30):
        assert abs(mpmath.mpf(r.value) - primitive_mp(x)) <= r.err


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
        refs = zeta_ds_mp(x), primitive_mp(x)
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
            return hurwitz_zeta(-1.0, t).value + float(mpmath.zeta(-1, t, 1))

    p1 = general_s_primitive(1.0)

    def general_s_q(x):
        near = min(x, 1.0 - x)
        return general_s_primitive(x) + general_s_primitive(1.0 - x) - 2.0 * p1, 0.0, -math.log(near) if near else math.inf

    monkeypatch.setattr(heights, "_q", general_s_q)
    for w, h in zip(sample, hot):
        assert abs(h_can(w).value - h) <= 1e-12 / min(1.0, abs(sum(w) - 2.0))


def test_zeta_literals_against_mpmath():
    # the odd zeta values of the Q series are the doubles nearest the true values
    assert len(specfun._ZETA_ODD) == 22
    for k, z in zip(range(3, 47, 2), specfun._ZETA_ODD):
        assert z == float(mpmath.zeta(k)), k
    assert specfun._EULER_GAMMA == float(mpmath.euler)
    # and so are the even zeta values of the A series and 1 - ln(2 pi)
    assert len(specfun._ZETA_EVEN) == 22
    for k, z in zip(range(2, 46, 2), specfun._ZETA_EVEN):
        assert z == float(mpmath.zeta(k)), k
    with mpmath.workdps(40):
        assert specfun._ONE_MINUS_LOG_2PI == float(1 - mpmath.log(2 * mpmath.pi))


def _ratio_integral_mp(a, b):
    """The integral of g(x) = ln(Gamma(x)/Gamma(1-x)) over [a, b] by mpmath
    quadrature at 30 digits, with its own error estimate.

    It is F(b) - F(a) for F(x) = integral of g over [0, x], and F(x) = F(1 - x)
    since g is odd about 1/2, so each quadrature runs over [0, y] with
    y <= 1/2, away from the pole of Gamma(1 - x) at 1.
    """
    with mpmath.workdps(30):
        total = err = mpmath.mpf(0)
        for x, sign in ((b, 1), (a, -1)):
            y = min(mpmath.mpf(x), 1 - mpmath.mpf(x))  # 1 - x is exact at 30 digits
            if y > 0:
                v, e = mpmath.quad(lambda t: mpmath.loggamma(t) - mpmath.loggamma(1 - t), [0, y], error=True)
                total += sign * v
                err += e
        return total, err


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
    ref, ref_err = _ratio_integral_mp(a, b)
    assert abs(mpmath.mpf(r.value) - ref) <= r.err + ref_err


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
    assert abs(mpmath.mpf(r.value) - (q_by_primitive_mp(b) - q_by_primitive_mp(a))) <= r.err


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
