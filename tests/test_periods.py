"""Period route: closed-form product, convergence, and direct integration."""

import math

import pytest

from orbiheight.heights import WeightVector
from orbiheight.periods import ConvergenceRow, PeriodConfig, convergence_report, df_log_z, mc_oracle_z, report_to_csv

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
    PeriodConfig(N=10, w=W_CAN)


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
        # anticanonical diagonal exponent |V| >= N - 1 for N = 2
        mc_oracle_z(2, (0.3, 0.3, 0.3), polarity="anticanonical")
