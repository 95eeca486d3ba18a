"""Fermat-curve heights, the genus gap, and the explicit Arakelov bounds."""

import math
from fractions import Fraction

import pytest

from orbiheight.fermat import (
    FermatSpec,
    arakelov_gap,
    arakelov_upper_bound,
    epsilon_m,
    fermat_h_can,
    genus,
)
from orbiheight.heights import h_can_positive
from orbiheight.lcombo import LogCombo
from orbiheight.tables import PRINTED_DEVIATIONS, table1_row

LN = math.log
PRINTED_SECOND = PRINTED_DEVIATIONS["arakelov:second_constant"]


def printed_second(m: int) -> float:
    """The second Arakelov bound with its printed constant."""
    return PRINTED_SECOND.evaluate().value + epsilon_m(m) + 2.0 * LN(m)


def test_spec_validation():
    with pytest.raises(ValueError):
        FermatSpec(2)
    with pytest.raises(ValueError):
        FermatSpec(5, (0, 1, 1))
    with pytest.raises(ValueError):
        fermat_h_can(FermatSpec(3))  # canonical side needs m >= 4


@pytest.mark.parametrize("f", [epsilon_m, arakelov_gap, arakelov_upper_bound, FermatSpec, genus])
def test_degree_limit_is_a_value_error(f):
    # (m - 1)(m - 2) in floats overflows from 2^512; every entry point refuses
    # the same degrees, and degrees that are not integers, with ValueError,
    # not OverflowError or a value
    f(2**511 - 1)
    for m in (2**511, 2**512, 10**400, 4.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="below 2\\^511"):
            f(m)


def test_twist_term():
    # a = (8, 1, 1) at m = 4: ((m-3)/2 + 1)/m * sum ln|a_i| = (3/8) ln 8 = (9/8) ln 2
    plain = fermat_h_can(FermatSpec(4)).value
    twisted = fermat_h_can(FermatSpec(4, (8, 1, 1))).value
    assert twisted - plain == pytest.approx(9.0 / 8.0 * LN(2.0), abs=1e-12)
    # sign-insensitive
    assert fermat_h_can(FermatSpec(4, (-8, 1, 1))).value == twisted


def test_genus():
    assert genus(4) == 3
    assert genus(3) == 1
    assert genus(7) == 15
    with pytest.raises(ValueError):
        genus(2)


def test_epsilon_values():
    # eps_4 = ln 2 + 1/4, eps_5 < eps_4 and eps_100 < 0.15 are registry checks
    with pytest.raises(ValueError):
        epsilon_m(3)


def test_epsilon_monotonicity_window():
    """eps_m decreases through m = 35 and then creeps back toward 0 from
    below, so "decreasing" holds only on an initial window."""
    vals = [epsilon_m(m) for m in range(4, 37)]
    assert all(a > b for a, b in zip(vals[:-1], vals[1:-1]))
    assert vals[-1] > vals[-2]  # first increase at m = 36
    assert all(epsilon_m(m) < 0.0 for m in (40, 60, 100))


def test_arakelov_gap():
    # m = 4 (genus 3): (1/2) [ (4 ln 4 + 1)/2 + ln(2 pi) ]
    want = 0.5 * ((4.0 * LN(4.0) + 1.0) / 2.0 + LN(2.0 * math.pi))
    assert arakelov_gap(4) == pytest.approx(want, abs=1e-15)
    # grows like (1/2) ln g for large m
    assert arakelov_gap(200) == pytest.approx(0.5 * LN(math.pi * (genus(200) - 1)), abs=0.01)
    with pytest.raises(ValueError):
        arakelov_gap(3)


def test_arakelov_constant():
    b = arakelov_upper_bound(4)
    printed = printed_second(4) - 2.0 * LN(4.0)
    # the quoted "-0.88..." is a truncation of the printed variant: its full
    # value is -0.887002..., so agreement holds at two decimals in the
    # truncating sense (-0.89 < printed < -0.88 is a registry check)
    assert math.floor(-printed * 100.0) / 100.0 == 0.88
    assert printed == pytest.approx(-0.887002, abs=5e-6)
    assert PRINTED_SECOND.logs == {2: Fraction(-13, 12)}
    # the shipped constant is the printed one plus ln 2
    assert b.second - 2.0 * LN(4.0) == pytest.approx(printed + LN(2.0), abs=1e-12)
    assert b.second >= 0.0
    assert b.epsilon == pytest.approx(LN(2.0) + 0.25, abs=1e-15)
    # ... namely f((3/4)^3) + (1/2) ln pi, the (4,4,4) row's Petersson height
    # plus (3/2) ln 2 (h_Pet = f + (1/2) ln(pi V / 2) at V = 1/4)
    const = b.second_constant
    assert const.logs == {2: Fraction(-1, 12)}
    assert const == table1_row(4, 4, 4).pet_height() + LogCombo(logs={2: Fraction(3, 2)})
    assert PRINTED_SECOND - const == LogCombo(logs={2: Fraction(-1)})


def test_bound_relationships():
    """Pins the exact structural relation between the two bounds.

    Shipped: second - first = f(w_4) - f(w_m) >= 0, so the chain holds.
    Printed constant: first - second = ln 2 - (f(w_4) - f(w_m)), so
    "first <= second" fails for every m (by ln 2 at m = 4), and the
    canonical-height-plus-gap route exceeds that bound exactly for m <= 12."""
    f4 = h_can_positive((0.75, 0.75, 0.75)).value
    for m in (4, 5, 10, 30, 60):
        b = arakelov_upper_bound(m)
        t = 1.0 - 1.0 / m
        fm = h_can_positive((t, t, t)).value
        assert b.second - b.first.value == pytest.approx(f4 - fm, abs=1e-9)
        assert b.first.value - printed_second(m) == pytest.approx(LN(2.0) - (f4 - fm), abs=1e-9)
        assert b.first.value > printed_second(m)  # the printed chain is inverted
    # gap route against the printed bound: fails exactly for m in [4, 12]
    bad = [
        m
        for m in range(4, 61)
        if fermat_h_can(FermatSpec(m)).value + arakelov_gap(m) > printed_second(m) + 1e-9
    ]
    assert bad == list(range(4, 13))
    # and the full shipped chain h_can + gap <= first <= second holds throughout
    for m in range(4, 61):
        b = arakelov_upper_bound(m)
        lhs = fermat_h_can(FermatSpec(m)).value + arakelov_gap(m)
        assert lhs <= b.first.value + 1e-9 and b.first.value <= b.second + 1e-9, m


def test_first_bound_is_valid_for_arakelov():
    # h_can + gap <= first bound always (the first bound is the chain's valid
    # half: it exceeds the direct route by exactly ln(2)/2)
    for m in (4, 5, 8, 20, 60):
        lhs = fermat_h_can(FermatSpec(m)).value + arakelov_gap(m)
        b = arakelov_upper_bound(m)
        assert lhs <= b.first.value + 1e-12
        assert b.first.value - lhs == pytest.approx(0.5 * LN(2.0), abs=1e-9)
