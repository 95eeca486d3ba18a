"""Acceptance gate: every exit criterion at its stated tolerance.

The checks live once, in the registry of ``orbiheight.verify`` that
``orbiheight verify`` runs too.  Each criterion is a single test that runs
the registry checks tagged with its id, plus the spot values the registry
does not hold, so the terminal summary (see conftest) can report them one
per line; one parametrized test runs the untagged checks.  Criterion 8c
holds with the shipped constant of the second Arakelov bound; with the
printed constant (off by ln 2, kept in tables.PRINTED_DEVIATIONS) it would
fail for degrees 4 through 12, as test_fermat.py::test_bound_relationships
pins down.
"""

import math
import time
from fractions import Fraction

import mp_refs
import mpmath
import numpy as np
import pytest
from conftest import LABELS
from ratio_quad import loggamma_ratio_integral_quad
from rational import rationalize

from orbiheight.fermat import arakelov_upper_bound, epsilon_m
from orbiheight.fields import dedekind_log_deriv, get_field
from orbiheight.heights import h_can_fano, h_pet
from orbiheight.shimura import builtin_cases, h_p_map, yuan_height
from orbiheight.tables import PRINTED_DEVIATIONS, TABLE1
from orbiheight.specfun import loggamma_ratio_integral
from orbiheight.verify import CHECKS, semistable_grid

LN = math.log


class Budget:
    def __init__(self, seconds: float):
        self.seconds = seconds
        self.t0 = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.t0
        assert elapsed < self.seconds, f"runtime {elapsed:.1f}s exceeds the {self.seconds:.0f}s budget"


def run_tagged(criterion: str):
    results = [c.run() for c in CHECKS if c.criterion == criterion]
    assert results, f"no registry check is tagged {criterion}"
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    assert not failed, failed


def test_criterion_01_table1_reproduction():
    budget = Budget(5.0)
    run_tagged("01")
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
    assert abs(lhs - (float(Fraction(25, 48)) * LN(5.0) - LN(5.0))) < 1e-13
    budget.check()


def test_criterion_02_table2_reproduction():
    budget = Budget(2.0)
    run_tagged("02")
    # the criterion's example row (2,3,3)
    base = 0.5 * (1.0 + LN(math.pi))
    w = (0.5, 2.0 / 3.0, 2.0 / 3.0)
    assert abs(h_can_fano(w).value - base - (0.5 * LN(2.0) + LN(3.0) / 8.0)) < 1e-13
    budget.check()


def test_criterion_03_shimura_exact():
    budget = Budget(1.0)
    run_tagged("03")
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
        diff = yuan_height(case) - case.optimal
        assert diff.zeta_terms == {} and diff.q0 == 0 and diff.c_logpi == 0
        # the coefficients certify as small rationals too
        for p, coeff in got.items():
            assert rationalize(float(coeff), max_den=10_000, tol=1e-8) == coeff
    budget.check()


def test_criterion_04_sharp_bound_grid():
    budget = Budget(30.0)
    run_tagged("04")
    assert sum(1 for _ in semistable_grid(20)) > 3000
    budget.check()


def test_criterion_05_period_convergence():
    budget = Budget(10.0)
    run_tagged("05")
    budget.check()


def test_criterion_06_small_n_oracle():
    budget = Budget(120.0)
    run_tagged("06")
    budget.check()


def test_criterion_07_faltings_log_cy():
    budget = Budget(60.0)
    run_tagged("07")
    budget.check()


def test_criterion_08a_arakelov_constant():
    budget = Budget(5.0)
    run_tagged("08a")
    printed = PRINTED_DEVIATIONS["arakelov:second_constant"].evaluate().value + epsilon_m(4)
    # the printed variant recomputed to full precision; the printed "-0.88..."
    # is a truncation of this value, so agreement is checked at two truncated
    # decimals (the registry check)
    assert abs(printed - (-0.8870021979626834)) < 1e-12
    # the shipped constant is the printed one plus ln 2
    const = arakelov_upper_bound(4).second - 2.0 * LN(4.0)
    assert abs(const - (-0.8870021979626834 + LN(2.0))) < 1e-12
    budget.check()


def test_criterion_08b_epsilon4_exact():
    run_tagged("08b")


def test_criterion_08c_bound_chain():
    """Verbatim criterion: h_can + gap <= second bound on m in [4, 60].

    With the printed second-bound constant (ln 2 too small) the inequality
    fails for m in [4, 12], by up to ln(2)/2; the shipped constant is the
    validated (4,4,4) value f((3/4)^3) + (1/2) ln pi
    (arakelov_upper_bound(m).second_constant).  The check is the registry's;
    full analysis: test_fermat.py::test_bound_relationships and the README.
    """
    (check,) = [c for c in CHECKS if c.name == "bound chain h_can + gap <= second bound on [4, 60]"]
    assert check.inputs["ms"] == tuple(range(4, 61))
    result = check.run()
    assert result.passed, result.detail


def test_criterion_09_property_suite():
    budget = Budget(10.0)
    run_tagged("09")
    # the closed form against the quadrature twin at 1e-9, and against the
    # primitive route P(b) + P(1-b) - P(a) - P(1-a) with P from mpmath at
    # 1e-14, on the fixed pair and 100 seeded ones in [0.02, 0.98]^2
    pairs = [(0.1, 0.7), *np.random.default_rng(42).uniform(0.02, 0.98, size=(100, 2)).tolist()]
    worst = max(abs(loggamma_ratio_integral(a, b).value - loggamma_ratio_integral_quad(a, b).value) for a, b in pairs)
    assert worst <= 1e-9, worst
    with mpmath.workdps(30):
        route = [mp_refs.gamma_integral(a, b) for a, b in pairs]
    worst = max(abs(loggamma_ratio_integral(a, b).value - r) for (a, b), r in zip(pairs, route))
    assert worst <= 1e-14, worst
    budget.check()


def test_criterion_10_concavity():
    budget = Budget(5.0)
    run_tagged("10")
    budget.check()


@pytest.mark.parametrize("check", [c for c in CHECKS if c.criterion is None], ids=lambda c: c.name)
def test_untagged_check(check):
    result = check.run()
    assert result.passed, result.detail


def test_registry_names_unique_and_tags_known():
    names = [c.name for c in CHECKS]
    assert len(names) == len(set(names))
    assert {c.criterion for c in CHECKS} - {None} <= set(LABELS)
