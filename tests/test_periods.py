"""Period route: closed-form product, convergence, and direct integration."""

import math
import tracemalloc

import df_product
import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbiheight._pairquad import pair_integral
from orbiheight.heights import WeightVector
from orbiheight.periods import (
    ConvergenceRow,
    PeriodConfig,
    _log_l,
    convergence_report,
    df_log_z,
    mc_oracle_z,
    report_to_csv,
)

W_CAN = WeightVector((0.75, 0.75, 0.75))
W_FANO = WeightVector((0.5, 0.5, 0.5))


def test_config_validation():
    with pytest.raises(ValueError):
        PeriodConfig(N=1, w=W_CAN)
    with pytest.raises(ValueError):
        PeriodConfig(N=10, w=W_FANO, polarity="canonical")  # V < 0
    with pytest.raises(ValueError):
        PeriodConfig(N=10, w=W_CAN, polarity="anticanonical")  # V > 0
    with pytest.raises(ValueError):
        PeriodConfig(N=10, w=WeightVector((1.0, 0.75, 0.75)))  # cusp: not klt
    with pytest.raises(ValueError):
        PeriodConfig(N=10, w=WeightVector((0.0, 0.3, 0.3)), polarity="anticanonical")  # wall
    with pytest.raises(ValueError):
        # N |V| = 2.5 >= 2(N - 1): Z_2 diverges where the two points meet
        PeriodConfig(N=2, w=WeightVector((0.2, 0.3, 0.25)), polarity="anticanonical")
    PeriodConfig(N=10, w=W_CAN)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1.0, max_value=1.0, exclude_min=True, exclude_max=True).filter(lambda x: x != 0.0))
@example(0.5)
@example(-0.5)
@example(math.nextafter(0.5, 1.0))
@example(math.nextafter(-0.5, -1.0))
@example(5e-324)
@example(1e-12)
@example(-1e-12)
@example(1.0 - 1e-12)
@example(-1.0 + 1e-12)
@example(math.nextafter(1.0, 0.0))
@example(math.nextafter(-1.0, 0.0))
def test_log_l_against_mpmath(x):
    with mpmath.workdps(40):
        ref = mpmath.log(abs(mpmath.gamma(x) / mpmath.gamma(1 - mpmath.mpf(x))))
        value = float(_log_l(np.array([x]))[0])
        assert abs(value - ref) <= 4.0 * np.finfo(float).eps * max(1.0, abs(ref))


# (weights, N, log Z_N, err) of the Gamma-ratio product as first evaluated
# with scipy's gammaln and gammasgn; the odd-zeta kernel must agree within err.
_DF_GOLDEN = [
    ((0.75, 0.75, 0.75), 2, 6.894747055342531, 9.66377175213889e-15),
    ((0.75, 0.75, 0.75), 3, 10.301949869030187, 1.7051495936747403e-14),
    ((0.75, 0.75, 0.75), 100, 341.90568083961375, 7.211017075357923e-13),
    ((0.75, 0.75, 0.75), 10000, 34187.37477646207, 7.28692709222629e-11),
    ((0.75, 0.75, 0.75), 1000000, 3418734.313730399, 7.288140683394357e-09),
    ((0.6, 0.8, 0.9), 2, 7.549817919598173, 9.469478654027552e-15),
    ((0.6, 0.8, 0.9), 3, 11.20751044251663, 1.6775686683401233e-14),
    ((0.6, 0.8, 0.9), 100, 369.30545779383397, 7.119788682837395e-13),
    ((0.6, 0.8, 0.9), 10000, 36921.68036931388, 7.19570876518964e-11),
    ((0.6, 0.8, 0.9), 1000000, 3692159.2613786673, 7.196922459733091e-09),
    ((0.9, 0.6, 0.8), 2, 7.549817919598171, 9.46947865402755e-15),
    ((0.9, 0.6, 0.8), 3, 11.20751044251663, 1.6775686683401233e-14),
    ((0.9, 0.6, 0.8), 100, 369.30545779383397, 7.119788682837395e-13),
    ((0.9, 0.6, 0.8), 10000, 36921.68036931388, 7.19570876518964e-11),
    ((0.9, 0.6, 0.8), 1000000, 3692159.2613786673, 7.196922459733091e-09),
    ((0.5, 0.5, 0.5), 2, 5.9352788842059825, 7.721453575580488e-15),
    ((0.5, 0.5, 0.5), 3, 8.683521609074047, 1.2583563953708797e-14),
    ((0.5, 0.5, 0.5), 100, 283.8867060179031, 5.253278686949057e-13),
    ((0.5, 0.5, 0.5), 10000, 28378.868363591144, 5.3198686808281725e-11),
    ((0.5, 0.5, 0.5), 1000000, 2837877.1640960053, 5.320990038464435e-09),
    ((0.4, 0.5, 0.6), 2, 6.096043436635465, 7.88221812800997e-15),
    ((0.4, 0.5, 0.6), 3, 8.894221273860662, 1.2794263618495411e-14),
    ((0.4, 0.5, 0.6), 100, 289.81828425084404, 5.312594469278465e-13),
    ((0.4, 0.5, 0.6), 10000, 28969.893162568012, 5.37897116072586e-11),
    ((0.4, 0.5, 0.6), 1000000, 2896977.5368245807, 5.38009041119301e-09),
]


@pytest.mark.parametrize("w, n, value, err", _DF_GOLDEN)
def test_df_log_z_golden_values(w, n, value, err):
    wv = WeightVector(w)
    r = df_log_z(PeriodConfig(N=n, w=wv, polarity="canonical" if wv.volume > 0 else "anticanonical"))
    assert abs(r.value - value) <= r.err
    assert r.err == pytest.approx(err, rel=1e-9)  # the err formula is unchanged


# The allocating twin in tests/df_product.py runs each element through the
# same operations in the same order, so the workspace must match it bit for
# bit: both polarities, the x < -1/2 branch at (0.2, 0.25, 0.3), two equal
# weights, and N on both sides of a block boundary (where Z_N converges).
def _twin_configs():
    for w in [w for w, n, _, _ in _DF_GOLDEN if n == 2] + [(0.2, 0.25, 0.3), (0.2, 0.2, 0.3)]:
        wv = WeightVector(w)
        for n in (2, 3, 100, 8191, 8192, 8193, 10**5):
            if abs(n * wv.volume) < 2.0 * (n - 1):
                yield PeriodConfig(N=n, w=wv, polarity="canonical" if wv.volume > 0 else "anticanonical")


@pytest.mark.parametrize("cfg", list(_twin_configs()), ids=lambda cfg: f"{cfg.w.w}-{cfg.N}")
def test_df_log_z_matches_the_allocating_twin_bit_for_bit(cfg):
    value, err = df_product.df_log_z(cfg)
    r = df_log_z(cfg)
    assert (r.value.hex(), r.err.hex()) == (value.hex(), err.hex())


def test_df_log_z_positive_and_finite():
    for n in (2, 5, 100, 12345):
        r = df_log_z(PeriodConfig(N=n, w=W_CAN))
        assert math.isfinite(r.value)
    r = df_log_z(PeriodConfig(N=10**6, w=W_CAN))
    assert math.isfinite(r.value)  # no overflow in log-gamma space


def test_convergence_report_and_csv():
    rows = convergence_report(W_CAN, "canonical", [100, 1000])
    assert [r.N for r in rows] == [100, 1000]
    assert abs(rows[1].gap) < abs(rows[0].gap)
    assert convergence_report(W_CAN, "canonical", []) == []
    text = report_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "N,estimate,gap"
    assert len(lines) == 3
    assert report_to_csv([ConvergenceRow(5, 1.0, 0.5)]).startswith("N,estimate,gap\n5,1,0.5")


def test_direct_integration_monte_carlo():
    z_exact = math.exp(df_log_z(PeriodConfig(N=2, w=WeightVector((5 / 6,) * 3))).value)
    est = mc_oracle_z(2, (5 / 6,) * 3, scheme="monte-carlo", budget=300_000, seed=5)
    assert 0.99 <= est.value / z_exact <= 1.01
    assert est.err > 0.0
    # N = 3
    z3 = math.exp(df_log_z(PeriodConfig(N=3, w=WeightVector((5 / 6,) * 3))).value)
    est3 = mc_oracle_z(3, (5 / 6,) * 3, scheme="monte-carlo", budget=500_000, seed=5)
    assert abs(est3.value / z3 - 1.0) < 3.0 * max(est3.err / z3, 1e-3)


def test_monte_carlo_seed_determinism():
    a = mc_oracle_z(2, (0.8, 0.8, 0.8), scheme="monte-carlo", budget=100_000, seed=123)
    b = mc_oracle_z(2, (0.8, 0.8, 0.8), scheme="monte-carlo", budget=100_000, seed=123)
    c = mc_oracle_z(2, (0.8, 0.8, 0.8), scheme="monte-carlo", budget=100_000, seed=124)
    assert a.value == b.value and a.err == b.err
    assert a.value != c.value


def test_direct_integration_preconditions():
    with pytest.raises(ValueError):
        mc_oracle_z(4, (0.75,) * 3)
    with pytest.raises(ValueError):
        mc_oracle_z(2, (1.0, 0.75, 0.75))  # weight 1: not integrable
    with pytest.raises(ValueError):
        mc_oracle_z(2, (0.5, 0.5, 0.5), polarity="canonical")  # V < 0
    with pytest.raises(ValueError):
        mc_oracle_z(3, (5 / 6,) * 3, scheme="nonsense")
    with pytest.raises(ValueError):
        mc_oracle_z(3, (5 / 6,) * 3, scheme="quadrature")  # quadrature is N = 2 only
    with pytest.raises(ValueError):
        # 2 |V| = 2.2 >= 2(N - 1): Z_2 diverges where the two points meet
        mc_oracle_z(2, (0.3, 0.3, 0.3), polarity="anticanonical")
    with pytest.raises(ValueError):
        # 3 |V| = 4.2 >= 2(N - 1) = 4: Z_3 diverges where all three points meet
        mc_oracle_z(3, (0.2, 0.2, 0.2), "monte-carlo", 20000, 1, "anticanonical")
    with pytest.raises(ValueError):
        mc_oracle_z(2, (5 / 6,) * 3, scheme="quadrature", budget=7)  # budget is Monte-Carlo only
    with pytest.raises(ValueError, match="at least 2"):
        mc_oracle_z(2, (5 / 6,) * 3, "monte-carlo", 1, 7)  # one sample: a standard error of 0
    with pytest.raises(ValueError, match="polarity"):
        mc_oracle_z(2, (5 / 6,) * 3, "monte-carlo", 20000, 1, "foo")


def test_three_point_monte_carlo_needs_a_finite_variance():
    # Where all three points meet, the second moment of f/q diverges unless
    # 5V + 4 > 0; at V = -1.3 the estimate read 15,630 +- 8,520 against a
    # product value of 38,548.
    with pytest.raises(ValueError, match="infinite variance"):
        mc_oracle_z(3, (0.24, 0.24, 0.22), "monte-carlo", 20000, 1, "anticanonical")
    assert mc_oracle_z(3, (0.4, 0.4, 0.42), "monte-carlo", 2000, 1, "anticanonical").err > 0.0  # 5V + 4 = 0.1


# (weights, coupling, value, err) of the N = 2 quadrature rule as first
# evaluated with complex arithmetic and full node-by-node kernels; the
# log-space evaluation computes the same rule, so it must agree to rounding.
_PAIR_GOLDEN = [
    ((5 / 6,) * 3, 0.5, 2156.618312432395, 0.4710886522297887),
    ((0.4, 0.5, 0.6), -0.5, 444.1560764985818, 0.0027092660558694394),
    ((0.5,) * 3, -0.5, 378.2125208082508, 0.029913545689543356),
    ((0.9, 0.6, 0.8), WeightVector((0.9, 0.6, 0.8)).volume, 1899.7727044716082, 2.4452758335502924),
]


@pytest.mark.parametrize("w, coupling, value, err", _PAIR_GOLDEN)
def test_pair_integral_golden_values(w, coupling, value, err):
    v, e = pair_integral(WeightVector(w), coupling)
    assert v == pytest.approx(value, rel=1e-12)
    assert e == pytest.approx(err, rel=1e-8)


# (N, weights, polarity, budget, seed, value, err) of the Monte-Carlo oracle
# as first sampled with rng.choice and masked complex exponentials; the same
# random stream must give the same estimate.
_MC_GOLDEN = [
    (2, (5 / 6,) * 3, "canonical", 40_000, 1, 2157.791783249602, 27.258484655807525),
    (3, (0.5,) * 3, "anticanonical", 100_000, 7, 5929.097404442786, 119.88157821609535),
    (2, (0.5,) * 3, "anticanonical", 100_000, 11, 372.3956911769393, 6.771315638530872),
]


@pytest.mark.parametrize("n, w, polarity, budget, seed, value, err", _MC_GOLDEN)
def test_monte_carlo_golden_values(n, w, polarity, budget, seed, value, err):
    r = mc_oracle_z(n, w, scheme="monte-carlo", budget=budget, seed=seed, polarity=polarity)
    assert r.value == pytest.approx(value, rel=1e-13)
    assert r.err == pytest.approx(err, rel=1e-13)


def _peak_mb(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_period_layers_memory_stays_flat():
    # the kernels are built in row blocks and the product in blocks of j in
    # one workspace: no temporary grows with the square of the node count or
    # with N, and the product allocates no block-sized temporaries
    assert _peak_mb(pair_integral, W_FANO, W_FANO.volume) < 8.0
    assert _peak_mb(df_log_z, PeriodConfig(N=10**6, w=W_CAN)) < 1.5
    assert _peak_mb(df_log_z, PeriodConfig(N=10**6, w=WeightVector((0.4, 0.5, 0.6)), polarity="anticanonical")) < 1.5
