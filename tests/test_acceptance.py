"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion is a single test so the terminal summary (see conftest) can
report them one per line.  Criterion 8c holds with the shipped constant of
the second Arakelov bound; with the printed constant (off by ln 2, kept in
tables.PRINTED_DEVIATIONS) it would fail for degrees 4 through 12, as
test_fermat.py::test_bound_relationships pins down.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from orbiheight.fermat import FermatSpec, arakelov_gap, arakelov_upper_bound, epsilon_m, fermat_h_can
from orbiheight.fields import dedekind_log_deriv, get_field
from orbiheight.heights import (
    WeightVector,
    bound_semiample,
    faltings_log_cy,
    h_can_fano,
    h_can_positive,
    h_pet,
    k_semistable,
    volume,
)
from orbiheight.lcombo import rationalize
from orbiheight.periods import PeriodConfig, df_log_z, height_from_periods, mc_oracle_z
from orbiheight.shimura import builtin_cases, h_p_map, optimal_pet_height, yuan_height
from orbiheight.specfun import (
    bernoulli2,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log_gamma,
    loggamma_primitive,
    loggamma_ratio_integral,
    loggamma_ratio_integral_quad,
)
from orbiheight.tables import PRINTED_DEVIATIONS, TABLE1, TABLE2

LN = math.log


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.seconds, f"runtime {elapsed:.1f}s exceeds the {self.seconds:.0f}s budget"


def test_criterion_01_table1_reproduction():
    budget = Budget(5.0)
    for row in TABLE1:
        wv = row.indices.weights()
        fs = get_field(row.field_id)
        lhs = h_pet(wv).value + 0.5 + dedekind_log_deriv(fs).value / fs.degree
        assert abs(lhs - row.constant.evaluate().value) < 1e-9, row.indices.m
    # spot values named in the criterion
    by_idx = {r.indices.m: r for r in TABLE1}
    assert by_idx[(2, 3, math.inf)].constant.logs == {2: Fraction(-1, 2), 3: Fraction(-1, 4)}
    assert by_idx[(7, 7, 7)].constant.logs == {7: Fraction(-95, 144)}
    assert by_idx[(9, 9, 9)].constant.logs == {3: Fraction(-31, 24)}
    # (5,5,5): the shipped coefficient is -23/48; the circulated +25/48 print
    # fails the same closed-form check by exactly ln 5 (kept in PRINTED_DEVIATIONS)
    assert by_idx[(5, 5, 5)].constant.logs == {5: Fraction(-23, 48)}
    wv = by_idx[(5, 5, 5)].indices.weights()
    fs = get_field("Qsqrt5")
    lhs = h_pet(wv).value + 0.5 + dedekind_log_deriv(fs).value / fs.degree
    assert abs(lhs - (float(Fraction(25, 48)) * LN(5.0) - LN(5.0))) < 1e-9
    budget.check()


def test_criterion_02_table2_reproduction():
    budget = Budget(2.0)
    base = 0.5 * (1.0 + LN(math.pi))
    for row in TABLE2:
        lhs = h_can_fano(row.indices.weights()).value - base
        assert abs(lhs - row.constant.evaluate().value) < 1e-9, row.indices.m
    # the criterion's example row (2,3,3)
    w = (0.5, 2.0 / 3.0, 2.0 / 3.0)
    assert abs(h_can_fano(w).value - base - (0.5 * LN(2.0) + LN(3.0) / 8.0)) < 1e-9
    budget.check()


def test_criterion_03_shimura_exact():
    budget = Budget(1.0)
    expected = {
        "modular": {2: Fraction(1, 2), 3: Fraction(1, 4)},
        "disc6": {2: Fraction(11, 18), 3: Fraction(7, 12)},
        "sqrt3": {2: Fraction(5, 9), 3: Fraction(15, 48)},
        "sqrt6": {2: Fraction(43, 144), 3: Fraction(3, 32)},
    }
    for cid, want in expected.items():
        case = builtin_cases()[cid]
        got = h_p_map(case)
        assert got == want, cid
        diff = yuan_height(case) - optimal_pet_height(case)
        assert diff.zeta_terms == {} and diff.q0 == 0 and diff.c_logpi == 0
        # the coefficients certify as small rationals too
        for p, coeff in got.items():
            assert rationalize(float(coeff), max_den=10_000, tol=1e-8) == coeff
    budget.check()


def test_criterion_04_sharp_bound_grid():
    budget = Budget(30.0)
    bound = -0.5 * (1.0 + LN(math.pi))
    bound_sa = bound_semiample((2.0 / 3.0,) * 3)
    vals = np.linspace(0.0, 1.0, 20)
    n_checked = 0
    for w1 in vals:
        for w2 in vals:
            for w3 in vals:
                w = (float(w1), float(w2), float(w3))
                if not k_semistable(w):
                    continue
                v = volume(w)
                if abs(v) < 1e-9:
                    continue
                signed = h_can_positive(w).value if v > 0 else -h_can_fano(w).value
                assert signed <= bound + 1e-9, w
                if signed > bound - 1e-9:
                    assert max(abs(x) for x in w) < 1e-12, f"equality away from 0 at {w}"
                if v > 0:
                    assert h_can_positive(w).value <= bound_sa + 1e-9, w
                n_checked += 1
    assert n_checked > 3000
    budget.check()


def test_criterion_05_period_convergence():
    budget = Budget(10.0)
    w = WeightVector((0.75, 0.75, 0.75))
    f_ref = h_can_positive(w).value
    gaps = [abs(height_from_periods(PeriodConfig(N=n, w=w)).value - f_ref) for n in (100, 1000, 10000)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-3
    w2 = WeightVector((0.5, 0.5, 0.5))
    target = 0.5 * (1.0 + LN(math.pi)) + 0.5 * LN(2.0)
    est = height_from_periods(PeriodConfig(N=10000, w=w2, polarity="anticanonical"))
    assert abs(est.value - target) < 1e-2
    budget.check()


def test_criterion_06_small_n_oracle():
    budget = Budget(120.0)
    for w, pol in (((5 / 6, 5 / 6, 5 / 6), "canonical"), ((0.5, 0.5, 0.5), "anticanonical")):
        z_exact = math.exp(df_log_z(PeriodConfig(N=2, w=WeightVector(w), polarity=pol)).value)
        est = mc_oracle_z(2, w, scheme="quadrature", polarity=pol)
        assert abs(est.value / z_exact - 1.0) < 1e-2, pol
    budget.check()


def test_criterion_07_faltings_log_cy():
    budget = Budget(60.0)
    target = -0.5 * LN(math.pi) + 1.5 * (log_gamma(2.0 / 3.0).value - log_gamma(1.0 / 3.0).value)
    r = faltings_log_cy((2.0 / 3.0,) * 3)
    assert abs(r.value - target) < 1e-5
    t = 2.0 / 3.0 + 1e-6 / 3.0
    assert abs(h_can_positive((t,) * 3).value - r.value) < 1e-5
    budget.check()


def test_criterion_08a_arakelov_constant():
    budget = Budget(5.0)
    printed = PRINTED_DEVIATIONS["arakelov:second_constant"]["printed"].evaluate().value + epsilon_m(4)
    # the printed variant recomputed to full precision; the printed "-0.88..."
    # is a truncation of this value, so agreement is checked at two truncated
    # decimals
    assert abs(printed - (-0.8870021979626834)) < 1e-12
    assert -0.89 < printed < -0.88
    # the shipped constant is the printed one plus ln 2
    const = arakelov_upper_bound(4).second - 2.0 * LN(4.0)
    assert abs(const - (-0.8870021979626834 + LN(2.0))) < 1e-12
    budget.check()


def test_criterion_08b_epsilon4_exact():
    assert epsilon_m(4) == pytest.approx(LN(2.0) + 0.25, abs=0.0)


def test_criterion_08c_bound_chain():
    """Verbatim criterion: h_can + gap <= second bound on m in [4, 60].

    With the printed second-bound constant (ln 2 too small) the inequality
    fails for m in [4, 12], by up to ln(2)/2; the shipped constant is the
    validated (4,4,4) value.  Full analysis:
    test_fermat.py::test_bound_relationships and the README.
    """
    failures = []
    for m in range(4, 61):
        lhs = fermat_h_can(FermatSpec(m)).value + arakelov_gap(m)
        rhs = arakelov_upper_bound(m).second
        if lhs > rhs + 1e-9:
            failures.append((m, lhs - rhs))
    assert not failures, (
        "chain inequality fails with the shipped second-bound constant "
        "f((3/4)^3) + (1/2) ln pi (arakelov_upper_bound(m).second_constant, the validated (4,4,4) value): "
        + ", ".join(f"m={m}: excess {d:.6f}" for m, d in failures[:4])
        + f" ... ({len(failures)} degrees total)"
    )


def test_criterion_09_property_suite():
    budget = Budget(10.0)
    rng = np.random.default_rng(2024)
    # Bernoulli identity at 1e-13
    for x in rng.uniform(1e-6, 2.0, size=200):
        assert abs(hurwitz_zeta(-1.0, float(x)).value + bernoulli2(float(x)) / 2.0) < 1e-13
    # recurrences at 1e-10
    for s in (-3.0, -1.0, 0.5, 2.0):
        for x in np.linspace(0.05, 5.0, 15):
            x = float(x)
            lhs = hurwitz_zeta(s, x).value - x**-s - hurwitz_zeta(s, x + 1.0).value
            assert abs(lhs) < 1e-10 * max(1.0, abs(hurwitz_zeta(s, x).value))
    for x in np.linspace(0.05, 5.0, 15):
        x = float(x)
        assert abs(hurwitz_zeta_ds(x).value - hurwitz_zeta_ds(x + 1.0).value + x * LN(x)) < 1e-10
    # multiplication theorem, plain and differentiated, at 1e-10
    zp, zm = hurwitz_zeta_ds(1.0).value, hurwitz_zeta(-1.0, 1.0).value
    for k in range(2, 13):
        for s in (-1.0, -0.5, 2.0):
            lhs = math.fsum(hurwitz_zeta(s, i / k).value for i in range(1, k + 1)) - k**s * hurwitz_zeta(s, 1.0).value
            assert abs(lhs) < 1e-10
        lhs = math.fsum(hurwitz_zeta_ds(i / k).value for i in range(1, k + 1)) - (zp + LN(k) * zm) / k
        assert abs(lhs) < 1e-10
    # primitive property at 1e-6
    h = 1e-4
    for x in (0.2, 0.5, 0.8):
        fd = (loggamma_primitive(x + h).value - loggamma_primitive(x - h).value) / (2.0 * h)
        assert abs(fd - (log_gamma(x).value - 0.5 * LN(2.0 * math.pi))) < 1e-6
    # closed form vs quadrature at 1e-9
    for _ in range(100):
        a, b = rng.uniform(0.02, 0.98, size=2)
        assert abs(loggamma_ratio_integral(float(a), float(b)).value - loggamma_ratio_integral_quad(float(a), float(b)).value) < 1e-9
    # two-point identity at 1e-10
    for v in rng.uniform(1e-3, 2.0 - 1e-3, size=50):
        v = float(v)
        assert abs(loggamma_ratio_integral(0.0, v / 2.0).value + loggamma_ratio_integral(1.0 - v / 2.0, 1.0).value) < 1e-10
    # quarter identity at 1e-10
    lhs = loggamma_ratio_integral(0.0, 0.25).value + 3.0 * loggamma_ratio_integral(0.5, 0.75).value
    assert abs(lhs - 0.25 * LN(2.0)) < 1e-10
    budget.check()


def test_criterion_10_concavity():
    budget = Budget(5.0)
    rng = np.random.default_rng(31415)
    done = 0
    while done < 100:
        wa = tuple(float(x) for x in rng.uniform(0.0, 1.0, size=3))
        wb = tuple(float(x) for x in rng.uniform(0.0, 1.0, size=3))
        if not (k_semistable(wa) and k_semistable(wb)):
            continue
        va, vb = volume(wa), volume(wb)
        mid = tuple(0.5 * (a + b) for a, b in zip(wa, wb))
        if va > 1e-3 and vb > 1e-3:
            ha, hb, hm = (h_can_positive(x).value for x in (wa, wb, mid))
        elif va < -1e-3 and vb < -1e-3:
            ha, hb, hm = (-h_can_fano(x).value for x in (wa, wb, mid))
        else:
            continue
        assert hm >= 0.5 * (ha + hb) - 1e-9
        done += 1
    budget.check()
