"""Special-function kernels against independent oracles.

Expected values come from four places only: exact classical identities
(factorials, Bernoulli polynomials), brute-force limits computed inside the
test (harmonic sums, Richardson-extrapolated finite differences), the
quadrature twin, the Euler-Maclaurin primitive and the general-s zeta
kernel, and mpmath at 30 digits.
Nothing is asserted that was not computed here.
"""

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
    digamma,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log_gamma,
    loggamma_primitive,
    loggamma_ratio_integral,
)
from ratio_quad import loggamma_ratio_integral_quad

EPS = np.finfo(float).eps


def euler_gamma_oracle() -> float:
    # Richardson on H_K - ln K (error 1/2K + O(1/K^2) -> O(1/K^2))
    def h_minus_log(k: int) -> float:
        return math.fsum(1.0 / i for i in range(1, k + 1)) - math.log(k)

    k = 1 << 20
    return 2.0 * h_minus_log(2 * k) - h_minus_log(k)


def zeta_prime_m1_oracle() -> float:
    # Richardson-extrapolated central differences of zeta(s, 1) at s = -1
    def d(h: float) -> float:
        return (hurwitz_zeta(-1.0 + h, 1.0).value - hurwitz_zeta(-1.0 - h, 1.0).value) / (2.0 * h)

    h = 1e-3
    return (4.0 * d(h / 2.0) - d(h)) / 3.0


def test_log_gamma_classical_values():
    assert log_gamma(1.0).value == pytest.approx(0.0, abs=1e-15)
    assert log_gamma(0.5).value == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)
    assert log_gamma(5.0).value == pytest.approx(math.log(24.0), rel=1e-14)
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-1.5)


# log-uniform over the whole double range, plus uniform on [1e-300, 40], where math.lgamma's
# Lanczos terms are largest against the result
_GAMMA_ARGS = st.one_of(
    st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
    st.floats(min_value=1e-300, max_value=40.0),
)


@settings(max_examples=300, deadline=None)
@given(_GAMMA_ARGS)
@example(1.0)
@example(1.0 / 3.0)
@example(2.0 / 3.0)
@example(1.4616)  # near the root of psi
@example(9.999)
@example(10.0)
@example(11.999)  # either side of the shift target of the psi series
@example(12.0)
@example(1e305)
@example(3.176616773975298)  # the largest log_gamma error seen in dense scans, 7.1 eps
@example(0.8270733956130889)  # the largest digamma error seen, 3.0 eps
@example(0.8502022793849939)  # a left-to-right sum of the psi terms loses 8 eps here
def test_log_gamma_and_digamma_error_bounds_against_mpmath(x):
    with mpmath.workdps(30):
        for r, exact in ((log_gamma(x), mpmath.loggamma(x)), (digamma(x), mpmath.digamma(x))):
            assert abs(mpmath.mpf(r.value) - exact) <= r.err


def test_digamma_against_harmonic_oracle():
    gamma_e = euler_gamma_oracle()
    assert digamma(1.0).value == pytest.approx(-gamma_e, abs=1e-11)
    # recurrence psi(2) = psi(1) + 1
    assert digamma(2.0).value == pytest.approx(1.0 - gamma_e, abs=1e-11)
    # duplication at x = 1/2: psi(1/2) = psi(1) - 2 ln 2
    assert digamma(0.5).value == pytest.approx(-gamma_e - 2.0 * math.log(2.0), abs=1e-11)
    with pytest.raises(ValueError):
        digamma(-0.3)


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
    # x = 2 equals x = 1 (the recurrence term x ln x vanishes at x = 1)
    assert hurwitz_zeta_ds(2.0).value == pytest.approx(r.value, abs=1e-12)


def test_loggamma_primitive():
    zp = hurwitz_zeta_ds(1.0).value
    assert loggamma_primitive(0.0).value == loggamma_primitive(1.0).value
    assert loggamma_primitive(1.0).value == pytest.approx(-1.0 / 12.0 + zp, abs=1e-12)
    assert loggamma_primitive(0.5).value == pytest.approx(1.0 / 24.0 + hurwitz_zeta_ds(0.5).value, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0))
@example(0.0)
@example(1.0)
@example(1e-300)
@example(1.0 - 2.0**-53)
def test_loggamma_primitive_error_bound_against_mpmath(x):
    r = loggamma_primitive(x)
    t = x if x > 0.0 else 1.0  # x = 0 continues by the value at 1
    with mpmath.workdps(30):
        exact = mpmath.zeta(-1, t) + mpmath.zeta(-1, t, 1)
        assert abs(mpmath.mpf(r.value) - exact) <= r.err


def test_heights_from_q_series_match_general_s_route(monkeypatch):
    # The same height formula, once through the odd-zeta series for
    # Q(x) = P(x) + P(1 - x) and once with Q from the primitive built on the
    # general-s Euler-Maclaurin kernel.  Both sit inside a bracket divided by
    # V, so they agree to 1e-12 before that division.
    rng = np.random.default_rng(2024)
    sample = []
    while len(sample) < 200:
        w = tuple(float(t) for t in rng.uniform(0.0, 1.0, size=3))
        if k_semistable(w) and abs(sum(w) - 2.0) > 1e-3:
            sample.append(w)

    hot = [h_can(w).value for w in sample]

    def general_s_primitive(x):
        t = x if x > 0.0 else 1.0
        return hurwitz_zeta(-1.0, t).value + hurwitz_zeta_ds(t).value

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
    # the P route P(b) + P(1-b) - P(a) - P(1-a), which the package no longer takes
    r = loggamma_ratio_integral(a, b)
    parts = [loggamma_primitive(x) for x in (b, 1.0 - b, a, 1.0 - a)]
    oracle = parts[0].value + parts[1].value - parts[2].value - parts[3].value
    assert abs(r.value - oracle) <= r.err + sum(p.err for p in parts)


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
