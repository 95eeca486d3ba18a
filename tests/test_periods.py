"""Period route: closed-form product, convergence, and direct integration."""

import itertools
import math
import random
import tracemalloc
import warnings

import df_product
import mp_refs
import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbiheight._pairquad import (
    _PATCHES,
    _cross_pairs,
    _powers,
    _same_patch,
    _theta_nodes,
    _variable_nodes,
    pair_integral,
    tanh_sinh_01,
)
from orbiheight.heights import RamIndices, WeightVector
from orbiheight.periods import (
    ConvergenceRow,
    PeriodConfig,
    _log_l,
    _Mixture,
    convergence_report,
    df_log_z,
    mc_oracle_z,
    report_to_csv,
)
from orbiheight.specfun import _ln_l

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
    # N counts points, so a float is refused even when it is integral
    for n in (2.5, 1000.0):
        with pytest.raises(ValueError, match="N must be an integer"):
            PeriodConfig(N=n, w=W_CAN)
    with pytest.raises(ValueError, match="N must be an integer"):
        mc_oracle_z(2.0, W_CAN)
    with pytest.raises(ValueError, match="N must be an integer"):
        convergence_report(W_CAN, [100.7])  # ran N = 100
    # j = N - 1 must be exact in floats; 10^400 overflowed a float
    for n in (2**53 + 1, 10**400):
        with pytest.raises(ValueError, match="N must be an integer from 2 to 2\\^53"):
            PeriodConfig(N=n, w=W_CAN)
    PeriodConfig(N=2**53, w=W_CAN)
    PeriodConfig(N=10, w=W_CAN)


def test_polarity_defaults_to_the_sign_of_v():
    assert (W_CAN.polarity, W_FANO.polarity) == ("canonical", "anticanonical")
    assert PeriodConfig(N=100, w=(0.5,) * 3) == PeriodConfig(N=100, w=W_FANO, polarity="anticanonical")
    assert PeriodConfig(N=100, w=W_CAN) == PeriodConfig(N=100, w=W_CAN, polarity="canonical")
    # an explicit polarity is still checked against V
    for w, wrong in ((W_CAN, "anticanonical"), (W_FANO, "canonical")):
        with pytest.raises(ValueError, match=f"{wrong} polarity needs V"):
            PeriodConfig(N=100, w=w, polarity=wrong)
    with pytest.raises(ValueError, match="unknown polarity"):
        PeriodConfig(N=100, w=W_CAN, polarity="fano")


@pytest.mark.parametrize("m", [(4, 4, 4), (2, 2, 3)])
def test_period_route_accepts_every_weight_form(m):
    # RamIndices, a list, a one-shot generator and a WeightVector each give
    # the tuple call's values, bit for bit
    t = RamIndices(m).weights().w
    for make in (lambda: RamIndices(m), lambda: list(t), lambda: (x for x in t), lambda: WeightVector(t)):
        assert PeriodConfig(N=10, w=make()) == PeriodConfig(N=10, w=t)
        for n in (2, 3, 1000):
            got, want = df_log_z(PeriodConfig(N=n, w=make())), df_log_z(PeriodConfig(N=n, w=t))
            assert (got.value.hex(), got.err.hex()) == (want.value.hex(), want.err.hex())
        got, want = convergence_report(make(), [10, 100]), convergence_report(t, [10, 100])
        assert [(r.estimate.hex(), r.gap.hex()) for r in got] == [(r.estimate.hex(), r.gap.hex()) for r in want]
        got, want = mc_oracle_z(2, make(), "monte-carlo", 2000, 3), mc_oracle_z(2, t, "monte-carlo", 2000, 3)
        assert (got.value.hex(), got.err.hex()) == (want.value.hex(), want.err.hex())


def test_quadrature_oracle_accepts_ram_indices():
    got, want = mc_oracle_z(2, RamIndices((6, 6, 6))), mc_oracle_z(2, RamIndices((6, 6, 6)).weights().w)
    assert (got.value.hex(), got.err.hex()) == (want.value.hex(), want.err.hex())


def test_step_h_is_derived_once_and_doubles_to_the_coupling():
    # h = V/(2(N - 1)) as the product reads it, and 2 h = V/(N - 1) as the
    # oracles read their coupling, bit for bit, over N from 2 to 2^53
    rng = random.Random(2034)
    seen = {"canonical": 0, "anticanonical": 0}
    while min(seen.values()) < 200:
        n = min(2 + int(2.0 ** rng.uniform(0.0, 53.0)), 2**53)
        try:
            cfg = PeriodConfig(N=n, w=tuple(rng.uniform(0.0, 1.0) for _ in range(3)))
        except ValueError:
            continue
        seen[cfg.polarity] += 1
        v = cfg.w.volume
        assert cfg.h == v / (2.0 * (n - 1)) and 2.0 * cfg.h == v / (n - 1)
    for n in (2, 3, 2**53):
        cfg = PeriodConfig(N=n, w=W_FANO)
        assert cfg.h == W_FANO.volume / (2.0 * (n - 1)) and 2.0 * cfg.h == W_FANO.volume / (n - 1)


def test_wall_distance_is_one_thousandth():
    # a weight exactly 1e-3 below 1, as the check computes 1 - 1e-3 in
    # floats, is accepted; one at half that distance is refused
    PeriodConfig(N=10, w=WeightVector((1.0 - 1e-3, 0.75, 0.75)))
    with pytest.raises(ValueError, match="within 0.001 of a stability wall"):
        PeriodConfig(N=10, w=WeightVector((1.0 - 5e-4, 0.75, 0.75)))


def _log_l_of(xs) -> np.ndarray:
    """periods._log_l at the values xs, in a workspace of their own."""
    x = np.array(xs)
    return _log_l(x, np.empty_like(x), np.empty((2, *x.shape)))


def _ln_l_within_err(x, ref) -> bool:
    """Whether the scalar specfun._ln_l at x, where x lies in its domain
    (-1/2, 1), carries an err that bounds the actual error and is within 10^3
    of it, or of half an ulp of the value (written 500 ulps), plus 1e-15: the
    err at x = 1/2, where -ln u and the series, both ln 2, cancel to 0."""
    if not -0.5 < x < 1.0:
        return True
    value, err = _ln_l(x)
    d = abs(mpmath.mpf(value) - ref)
    return d <= err <= max(1e3 * float(d), 500.0 * math.ulp(value)) + 1e-15


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
@example(-5e-324)
@example(math.nextafter(0.5, 0.0))
def test_log_l_against_mpmath(x):
    with mpmath.workdps(40):
        ref = mp_refs.ln_l(x)
        value = float(_log_l_of([x])[0])
        assert abs(value - ref) <= 4.0 * np.finfo(float).eps * max(1.0, abs(ref))
        assert _ln_l_within_err(x, ref)


# the same checks as above, over ~1,000 evenly spaced points and the float
# neighbours of the branch points -1/2, 0 and 1/2
_DENSE_XS = sorted(
    {*np.linspace(-1.0, 1.0, 1002)[1:-1].tolist(), 1.0 - 1e-12, -1.0 + 1e-12, 1.0 - 2.0**-53}
    | {s * y for s in (1.0, -1.0) for y in (0.5, math.nextafter(0.5, 0.0), math.nextafter(0.5, 1.0), 5e-324)}
)


def test_log_l_dense_against_mpmath():
    values = _log_l_of(_DENSE_XS)
    bad = []
    with mpmath.workdps(40):
        for x, value in zip(_DENSE_XS, values.tolist()):
            ref = mp_refs.ln_l(x)
            if abs(value - ref) > 4.0 * np.finfo(float).eps * max(1.0, abs(ref)) or not _ln_l_within_err(x, ref):
                bad.append((x, value, float(ref)))
    assert not bad


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
    r = df_log_z(PeriodConfig(N=n, w=w))
    assert abs(r.value - value) <= r.err
    assert r.err == pytest.approx(err, rel=1e-9)  # the err formula is unchanged


# perfbench's four period weights (inputs.PERIOD_WEIGHTS), both polarities, at N = 2 .. 1000
@pytest.mark.parametrize("w", [(0.75, 0.75, 0.75), (0.6, 0.8, 0.9), (0.5, 0.5, 0.5), (0.4, 0.5, 0.6)], ids=lambda w: ",".join(map(str, w)))
@pytest.mark.parametrize("n", [2, 3, 10, 100, 1000])
def test_df_log_z_against_the_exact_gamma_product(w, n):
    # err bounds the distance to the Gamma-ratio product at the exact
    # weights, evaluated by mpmath at 30 digits
    r = df_log_z(PeriodConfig(N=n, w=w))
    with mpmath.workdps(30):
        assert abs(mpmath.mpf(r.value) - mp_refs.log_z(n, w)) <= r.err


# The allocating twin in tests/df_product.py runs each element through the
# same operations in the same order, so the workspace must match it bit for
# bit: both polarities, the x < -1/2 branch at (0.2, 0.25, 0.3), two equal
# weights, and N on both sides of a block boundary (where Z_N converges).
def _twin_configs():
    for w in [w for w, n, _, _ in _DF_GOLDEN if n == 2] + [(0.2, 0.25, 0.3), (0.2, 0.2, 0.3)]:
        wv = WeightVector(w)
        for n in (2, 3, 100, 8191, 8192, 8193, 10**5):
            if abs(n * wv.volume) < 2.0 * (n - 1):
                yield PeriodConfig(N=n, w=wv)


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
    rows = convergence_report(W_CAN, [100, 1000])
    assert [r.N for r in rows] == [100, 1000]
    assert abs(rows[1].gap) < abs(rows[0].gap)
    assert convergence_report(W_CAN, []) == []
    # V < 0 picks the Fano polarity
    fano = df_log_z(PeriodConfig(N=100, w=W_FANO, polarity="anticanonical")).value / 200.0
    assert [r.estimate for r in convergence_report(W_FANO, [100])] == [fano]
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


@pytest.mark.parametrize(
    "w, refused",
    [((0.4, 0.4, 0.3), True), ((0.37, 0.37, 0.36), True), ((0.36, 0.36, 0.33), True), ((0.34, 0.34, 0.34), False)],
)
def test_monte_carlo_near_v_minus_one_is_never_nan(w, refused):
    # once nan +- nan at seed 1 and 100,000 samples, with RuntimeWarnings: the
    # pair component (alpha = 2 + 2V, near 0) drew offsets that rounded two
    # points onto each other, where f and q were both infinite.  Three of the
    # points put two points at a puncture with a variance that diverges like
    # a power (3w - V > 2 and w - V > 1); equal weights sit on the border,
    # where it diverges like a log, and (0.34)^3 reads 3864.7 +- 84.6 here
    # against the product's 3949.6.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused:
            with pytest.raises(ValueError, match="infinite variance where two points meet at a puncture"):
                mc_oracle_z(2, w, "monte-carlo", 100_000, 1, "anticanonical")
        else:
            r = mc_oracle_z(2, w, "monte-carlo", 100_000, 1, "anticanonical")
            assert math.isfinite(r.value) and 0.0 < r.err < math.inf
            assert abs(r.value / math.exp(df_log_z(PeriodConfig(N=2, w=w, polarity="anticanonical")).value) - 1.0) < 0.03


@pytest.mark.parametrize("n", [2, 3])
def test_points_rounded_onto_each_other_weigh_as_their_limit(n):
    # two points that coincide in doubles give ln d^2 = -inf; the weight is
    # then the limit of f/q as they meet, which a pair 1e-150 apart reads too
    mix = _Mixture(PeriodConfig(N=n, w=(0.45, 0.45, 0.5)), 4)
    base = np.array([[0.3, -0.7, 1.2, 40.0], [0.1, 0.5, -0.2, -3.0]])
    ratios = []
    for gap in (0.0, 1e-150):
        mix.xy[:, 0, :] = base
        mix.xy[:, 1, :] = base + [[gap], [0.0]]
        if n == 3:
            mix.xy[:, 2, :] = [[0.6], [0.6]]
        lnf, q = mix.weigh(4)
        ratios.append(np.exp(lnf) / q)
    assert np.all(np.isfinite(ratios[0]))
    np.testing.assert_allclose(ratios[0], ratios[1], rtol=1e-12)


# (weights, value, err) of the N = 2 quadrature rule, at the coupling
# exponent V, as first evaluated with complex arithmetic and full
# node-by-node kernels; the log-space evaluation computes the same rule, so
# it must agree to rounding.
_PAIR_GOLDEN = [
    ((5 / 6,) * 3, 2156.618312432395, 0.4710886522297887),
    ((0.4, 0.5, 0.6), 444.1560764985818, 0.0027092660558694394),
    ((0.5,) * 3, 378.2125208082508, 0.029913545689543356),
    ((0.9, 0.6, 0.8), 1899.7727044716082, 2.4452758335502924),
]


@pytest.mark.parametrize("w, value, err", _PAIR_GOLDEN)
def test_pair_integral_golden_values(w, value, err):
    v, e = pair_integral(PeriodConfig(N=2, w=w))
    assert v == pytest.approx(value, rel=1e-12)
    assert e == pytest.approx(err, rel=1e-8)


# The quadrature sums one node of each mirror pair with its weight doubled.
# That rests on the angle nodes mapping onto themselves under conjugation;
# the references below sum the unfolded rule, every node with its own weight,
# from its definition.


@pytest.mark.parametrize("n_theta", [36, 50], ids=["coarse", "fine"])
@pytest.mark.parametrize("patch", _PATCHES, ids=["P0", "P1", "Pinf"])
def test_pair_angle_nodes_map_onto_themselves_under_conjugation(patch, n_theta):
    theta, w_theta, fold = _theta_nodes(patch, n_theta)
    for a, b in patch.segments:
        k = round(0.5 * (a + b) / math.pi)
        assert 0.5 * (a + b) == pytest.approx(k * math.pi, abs=1e-15)
        inside = (theta > a) & (theta < b)
        order = np.argsort(theta[inside])
        t, w = theta[inside][order], w_theta[inside][order]
        # theta -> 2k pi - theta reverses the sorted nodes; seen: within 1 ulp
        np.testing.assert_allclose(2.0 * k * math.pi - t[::-1], t, rtol=0.0, atol=4.0 * np.spacing(np.abs(t).max()))
        np.testing.assert_allclose(w[::-1], w, rtol=0.0, atol=4.0 * np.spacing(w.max()))
    # the folded nodes: one of each mirror pair with fold 2, the nodes on the
    # real axis with fold 1, the same total weight
    head = theta[: len(fold)]
    assert set(fold.tolist()) <= {1.0, 2.0}
    np.testing.assert_allclose(np.sin(head[fold == 1.0]), 0.0, atol=1e-15)
    assert math.fsum(w_theta[: len(fold)] * fold) == pytest.approx(math.fsum(w_theta), rel=1e-15)
    assert len(theta) == 2 * len(fold) - np.count_nonzero(fold == 1.0)


def _ref_cross_pairs(nodes, coupling):
    """The unfolded cross sum: every a-side node, rows of K in one expression."""
    total = 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        xa, ya, va, _ = nodes[i]
        xb, yb, vb, _ = nodes[j]
        for lo in range(0, len(xa), 64):
            k = np.exp(coupling * np.log((xa[lo : lo + 64, None] - xb) ** 2 + (ya[lo : lo + 64, None] - yb) ** 2))
            total += float(va[lo : lo + 64] @ (k @ vb))
    return 2.0 * total


def _ref_same_patch(patch, wv, coupling, counts):
    """The unfolded same-patch sum, node by node from the chart: z1 at (r, theta),
    z2 at radius s r and angle theta + psi, s = cap sx, with the measure
    r dr dtheta r2 dr2 dpsi and dr2 = r cap dsx; every angle theta, each with its weight."""
    n_theta, n_r, n_psi, n_s = counts
    theta, w_theta, _ = _theta_nodes(patch, n_theta)
    rx, rw = tanh_sinh_01(n_r)
    sx, sw = tanh_sinh_01(n_s)
    px, pw = tanh_sinh_01(n_psi)
    psi = np.concatenate([-math.pi * px[::-1], math.pi * px])[:, None]
    w_psi = np.concatenate([math.pi * pw[::-1], math.pi * pw])[:, None]
    a, b, sigma = _powers(patch, wv)
    total = 0.0
    for th, wth in zip(theta, w_theta):
        rmax = float(patch.r_max(np.array(th)))
        for r, wr in zip(rmax * rx, rmax * rw):
            cap = np.minimum(1.0, patch.r_max(th + psi) / r)
            s = cap * sx  # (psi, sx)
            r2 = s * r
            ln_rel = np.log((1.0 - s) ** 2 + 4.0 * s * np.sin(0.5 * psi) ** 2)  # |1 - s e^{i psi}|^2
            # |z1 - z2| is r |1 - s e^{i psi}| on direct charts, |1 - s e^{i psi}| / (r r2) on the inverted one
            ln_k = coupling * (ln_rel - 2.0 * np.log(r2) if patch.inverted else ln_rel + 2.0 * math.log(r))
            ln_f1 = a * math.log(r) - b * math.log(r * (r + 2.0 * sigma * math.cos(th)) + 1.0)
            ln_f2 = a * np.log(r2) - b * np.log(r2 * (r2 + 2.0 * sigma * np.cos(th + psi)) + 1.0)
            vals = np.exp(ln_f1 + ln_f2 + ln_k + np.log(r * r2 * r * cap))
            total += wth * wr * float(np.sum(w_psi * vals * sw))
    return 2.0 * total


@pytest.mark.parametrize("w, coupling", [(w, WeightVector(w).volume) for w, *_ in _PAIR_GOLDEN])
def test_folded_pair_sums_match_the_unfolded_rule(w, coupling):
    # at scale 1.0, the coarse level of pair_integral; every term of both sums
    # is positive, so the relative gap is that of the mirrored nodes (seen:
    # 2.1e-15 at most)
    wv = WeightVector(w)
    counts = (36, 30, 20, 28)
    nodes = [_variable_nodes(p, wv, 36, 30) for p in _PATCHES]
    assert _cross_pairs(nodes, coupling) == pytest.approx(_ref_cross_pairs(nodes, coupling), rel=1e-14, abs=0.0)
    for p in _PATCHES:
        assert _same_patch(p, wv, coupling, counts) == pytest.approx(_ref_same_patch(p, wv, coupling, counts), rel=1e-14, abs=0.0)


def test_pair_nodes_are_built_once_and_read_only():
    nodes = _theta_nodes(_PATCHES[1], 36)
    assert all(x is y for x, y in zip(_theta_nodes(_PATCHES[1], 36), nodes))
    for arr in (*nodes, *tanh_sinh_01(30)):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    first = pair_integral(PeriodConfig(N=2, w=W_FANO))
    assert pair_integral(PeriodConfig(N=2, w=W_FANO)) == first  # bit for bit


# (N, weights, polarity, budget, seed, value, err) of the Monte-Carlo oracle
# as first sampled with rng.choice and masked complex exponentials; the same
# random stream must give the same estimate.
_MC_GOLDEN = [
    (2, (5 / 6,) * 3, "canonical", 40_000, 1, 2157.791783249602, 27.258484655807525),
    (3, (0.5,) * 3, "anticanonical", 100_000, 7, 5929.097404442786, 119.88157821609535),
    (2, (0.5,) * 3, "anticanonical", 100_000, 11, 372.3956911769393, 6.771315638530872),
]


@pytest.mark.parametrize("w", [(0.99, 0.99, 0.5), (0.998, 0.6, 0.6), (0.6, 0.6, 0.998)])
def test_monte_carlo_refuses_weights_whose_draws_leave_the_doubles(w):
    # once nan +- nan at 100,000 and 200,000 samples, seed 1: a disk's |z|^2
    # underflowed or its density overflowed
    with pytest.raises(ValueError, match="every weight at most 0.948099"):
        mc_oracle_z(2, w, "monte-carlo", 200_000, 1)


@pytest.mark.parametrize("n, w, polarity, budget, seed, value, err", _MC_GOLDEN)
def test_monte_carlo_golden_values(n, w, polarity, budget, seed, value, err):
    r = mc_oracle_z(n, w, scheme="monte-carlo", budget=budget, seed=seed, polarity=polarity)
    assert r.value == pytest.approx(value, rel=1e-13)
    assert r.err == pytest.approx(err, rel=1e-13)
    # the polarity omitted is the one the sign of V names, bit for bit
    omitted = mc_oracle_z(n, w, scheme="monte-carlo", budget=budget, seed=seed)
    assert (omitted.value.hex(), omitted.err.hex()) == (r.value.hex(), r.err.hex())


_MIXTURE_CASES = [
    (2, (5 / 6,) * 3, "canonical"),
    (3, (5 / 6,) * 3, "canonical"),
    (2, (0.5,) * 3, "anticanonical"),
    (3, (0.5,) * 3, "anticanonical"),
    (2, (0.4, 0.5, 0.6), "anticanonical"),
]


@pytest.mark.parametrize("n, w, polarity", _MIXTURE_CASES)
def test_mixture_density_is_the_density_of_its_sampler(n, w, polarity):
    # g, a product of unit Gaussians, integrates to 1 over C^N, so the mean of
    # g/q over the sampler's draws is 1 exactly when q is their density; a
    # component density off by a factor of 2 (the pair one included) moves it
    # by more than 6 standard errors
    mix = _Mixture(PeriodConfig(N=n, w=w, polarity=polarity), 1 << 15)
    centers = np.array([0.0, 1.0, 0.5 + 0.5j])[:n]
    ratios = []
    for c in range(12):  # 12 chunks of 2^15, about 400,000 configurations
        x, y = mix.sample(np.random.Generator(np.random.Philox(key=[2026, c])), 1 << 15)
        z = (x + 1j * y).T
        g = np.prod(np.exp(-np.abs(z - centers) ** 2) / math.pi, axis=1)
        ratios.append(g / mix.weigh(1 << 15)[1])
    r = np.concatenate(ratios)
    assert abs(r.mean() - 1.0) < 4.0 * r.std() / math.sqrt(r.size)


# The reference for _Mixture.weigh: the integrand and the mixture density in
# complex arithmetic, one |.| and one power per distance and component, with
# no log shared between them.


def _ref_disk(d, alpha, radius):
    """Density, at distance d from c, of c + radius u^(1/alpha) e^{i theta} for
    uniform u and theta: alpha d^(alpha - 2) / (2 pi radius^alpha) on d <= radius."""
    return np.where(d <= radius, alpha * np.maximum(d, 1e-300) ** (alpha - 2.0) / (2.0 * math.pi * radius**alpha), 0.0)


def _ref_density(mix, z):
    per_point = []
    for zk in z.T:  # a column at a time keeps the temporaries small
        dist = {c: np.abs(zk - c) for c in set(mix.center)}
        qk = 0.0
        for p, alpha, center, radius, flip in zip(mix.probs, mix.alpha, mix.center, mix.radius, mix.flip):
            if flip > 0.0:
                qk = qk + p * _ref_disk(dist[center], alpha, radius)
            else:  # the inverted disk: q(z) = q_disk(1/z) |z|^(-4), the Jacobian of z -> 1/z
                d = np.maximum(dist[center], 1e-300)
                qk = qk + p * _ref_disk(1.0 / d, alpha, radius) * d**-4.0
        per_point.append(qk)
    q = (1.0 - mix.pair_prob) * math.prod(per_point)
    for i, j in mix.pairs:
        rest = math.prod(x for k, x in enumerate(per_point) if k not in (i, j))
        qd = _ref_disk(np.abs(z[:, j] - z[:, i]), mix.pair_alpha, mix.pair_radius)
        q = q + mix.pair_prob / len(mix.pairs) * rest * 0.5 * (per_point[i] + per_point[j]) * qd
    return q


def _ref_log_integrand(z, wv, coupling):
    """log of the Vandermonde integrand on configurations z of shape (n, N)."""
    w1, w2, _ = wv.w
    out = -2.0 * w1 * np.log(np.abs(z)).sum(axis=1) - 2.0 * w2 * np.log(np.abs(z - 1.0)).sum(axis=1)
    for i, j in itertools.combinations(range(z.shape[1]), 2):
        out += 2.0 * coupling * np.log(np.abs(z[:, i] - z[:, j]))
    return out


@pytest.mark.parametrize("n, w, polarity", _MIXTURE_CASES)
def test_weigh_matches_the_complex_reference(n, w, polarity):
    # On the draws of the test above.  Both sides take ln s of the same
    # squared distances, each rounded to within about eps |ln s|.  The
    # smallest |z| or |z - 1| drawn is 3e-20 and the largest |z| 6e16, so
    # |ln s| <= 100 (asserted below) and each log is off by at most 2.2e-14.
    # ln f sums at most 9 of them with factors below 1, so the two ln f
    # differ by at most 9 * 2 * 2.2e-14 = 4e-13, and exp turns that absolute
    # error into the same relative error of f.  Each density component is
    # K exp(e ln s) with |e| < 2, off by at most 2 * 2 * 2.2e-14 relative, and
    # q sums and multiplies positive ones.  Seen: 2.8e-14 on ln f, 2.0e-14
    # on q.
    cfg = PeriodConfig(N=n, w=w, polarity=polarity)
    wv, coupling = cfg.w, cfg.w.volume / (n - 1)
    mix = _Mixture(cfg, 1 << 15)
    for c in range(12):
        x, y = mix.sample(np.random.Generator(np.random.Philox(key=[2026, c])), 1 << 15)
        z = (x + 1j * y).T
        dists = [np.abs(z), np.abs(z - 1.0)] + [np.abs(z[:, i] - z[:, j]) for i, j in itertools.combinations(range(n), 2)]
        assert max(np.max(np.abs(2.0 * np.log(d))) for d in dists) <= 100.0
        ln_f, q = mix.weigh(1 << 15)
        np.testing.assert_allclose(ln_f, _ref_log_integrand(z, wv, coupling), rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(q, _ref_density(mix, z), rtol=1e-12, atol=0.0)


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
    assert _peak_mb(pair_integral, PeriodConfig(N=2, w=W_FANO)) < 8.0
    assert _peak_mb(df_log_z, PeriodConfig(N=10**6, w=W_CAN)) < 1.5
    assert _peak_mb(df_log_z, PeriodConfig(N=10**6, w=WeightVector((0.4, 0.5, 0.6)), polarity="anticanonical")) < 1.5
    # the Monte-Carlo oracle draws into one workspace of 2^15 configurations
    # (3.9 MB at N = 3), so its peak does not grow with the budget; the first
    # call imports numpy.random
    mc_oracle_z(3, W_FANO, "monte-carlo", 2000, 0, "anticanonical")
    peaks = [_peak_mb(mc_oracle_z, 3, W_FANO, "monte-carlo", b, 0, "anticanonical") for b in (10**5, 4 * 10**5)]
    assert max(peaks) < 6.0
    assert abs(peaks[1] - peaks[0]) < 0.05


@pytest.mark.parametrize("scheme", ["quadrature", "monte-carlo"])
def test_oracle_returns_plain_floats(scheme):
    r = mc_oracle_z(2, (5 / 6,) * 3, scheme, 2000 if scheme == "monte-carlo" else None)
    assert type(r.value) is float and type(r.err) is float
