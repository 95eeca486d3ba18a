"""Exact local invariants h(p) and the closed-form table data behind them."""

import math
from dataclasses import replace
from fractions import Fraction

import pytest

from orbiheight.heights import RamIndices, h_pet
from orbiheight.lcombo import LogCombo
from orbiheight.shimura import (
    RamifiedPrime,
    ShimuraCase,
    _fold_four_points,
    _parse_case,
    get_case,
    h_p_map,
    orbifold_degree,
    yuan_height,
    yuan_prime_coeff,
)
from orbiheight.tables import PRINTED_DEVIATIONS, TABLE1, TABLE2, table1_row

F = Fraction


def test_yuan_prime_coefficients():
    assert yuan_prime_coeff(2) == F(5, 4)
    assert yuan_prime_coeff(3) == F(1)
    with pytest.raises(ValueError):
        yuan_prime_coeff(1)


def test_disc6_decomposition():
    case = get_case("disc6")
    y = yuan_height(case)
    assert y.logs == {2: F(5, 4), 3: F(1)}
    assert y.zeta_terms == {"Q": F(-1)}
    opt = case.optimal
    assert opt.logs == {2: F(1, 2) - F(1, 6), 3: F(1, 8)}
    diff = y - opt
    assert diff.zeta_terms == {} and diff.q0 == 0
    assert diff.logs == {2: F(11, 12), 3: F(7, 8)}
    assert case.k_degree == F(1, 3)
    assert case.scale() == F(2, 3)


def test_sqrt3_prime_contribution():
    case = get_case("sqrt3")
    y = yuan_height(case)
    # single prime of norm 3 with coefficient 1, degree factor 1/2
    assert y.logs == {3: F(1, 2)}
    hp = h_p_map(case)
    assert hp[3] == F(15, 48) == F(5, 16)


def test_sqrt6_carries_source_overrides():
    case = get_case("sqrt6")
    assert case.ramified[0].coeff == F(7, 4)  # not the generic 5/4
    y = yuan_height(case)
    assert y.logs == {2: F(7, 8)}
    # the shipped row for this case is the printed one, ln(2)/2 off the
    # validated (3, 4, 6) table row
    validated = table1_row(3, 4, 6).pet_height()
    offset = case.optimal - validated
    assert offset == LogCombo(logs={2: F(1, 2)})


def test_modular_case_shift_consistency():
    # Table row (2, 3, inf) plus the j-invariant shift (1/12) ln(12^3) equals
    # the prime-free closed formula exactly, coefficient by coefficient.
    case = get_case("modular")
    row = table1_row(2, 3, math.inf).pet_height()
    shift = LogCombo(logs={2: F(1, 2), 3: F(1, 4)})  # (1/12) ln(12^3)
    assert row + shift == yuan_height(case)
    assert h_p_map(case) == {2: F(1, 2), 3: F(1, 4)}


@pytest.mark.parametrize(
    "cid, indices, extra",
    [
        ("modular", (2, 3, math.inf), LogCombo()),
        ("disc6", (6, 2, 6), LogCombo(logs={2: F(1, 2)})),  # the fold of its four points
        ("sqrt3", (2, 4, 12), LogCombo()),
        ("sqrt6", (3, 4, 6), LogCombo(logs={2: F(1, 2)})),  # the printed row
    ],
)
def test_case_holds_its_named_row(cid, indices, extra):
    case = get_case(cid)
    row = table1_row(*indices)
    assert case.optimal == row.pet_height() + extra
    assert case.field_id == row.field_id


def _fixture(**changes) -> dict:
    doc = {"id": "probe", "row": [6, 2, 6], "k_degree": [1, 3], "expected_h": {}}
    return {**doc, **changes}


def _without(key: str) -> dict:
    return {k: v for k, v in _fixture().items() if k != key}


def test_loader_refuses_rows_it_cannot_name():
    assert _parse_case(_fixture()).optimal == table1_row(6, 2, 6).pet_height()
    with pytest.raises(ValueError, match="'probe'.*no Table 1 row"):
        _parse_case(_fixture(row=[6, 6, 2]))  # the indices are read in order
    with pytest.raises(ValueError, match="'probe': ramification index must be a positive integer .* got '6'$"):
        _parse_case(_fixture(row=["6", 2, 6]))
    with pytest.raises(ValueError, match=r"'probe'.*no printed variant of table1:\(6,2,6\)"):
        _parse_case(_fixture(printed=True))
    # a missing key is named as missing, not as a failed table lookup
    no_row = _without("row")
    with pytest.raises(ValueError, match="'probe': exactly one of 'row' and 'four_points'"):
        _parse_case(no_row)
    with pytest.raises(ValueError, match="'probe': exactly one of 'row' and 'four_points'"):
        _parse_case(_fixture(four_points=[3, 2, 2, 3]))  # both keys
    assert _parse_case({**no_row, "four_points": [3, 2, 2, 3]}).optimal == get_case("disc6").optimal
    with pytest.raises(ValueError, match="'probe': 'four_points' lists the indices at 0, 1, -1 and infinity"):
        _parse_case({**no_row, "four_points": [3, 2, 3]})
    with pytest.raises(ValueError, match="'probe': no Table 1 row has indices \\(4, 2, 4\\)"):
        _parse_case({**no_row, "four_points": [2, 2, 2, 2]})


@pytest.mark.parametrize(
    "doc, message",
    [
        (_without("id"), 'a case is an object with a string "id"'),
        (_without("k_degree"), "'probe': 'k_degree' is missing"),
        (_without("expected_h"), "'probe': 'expected_h' is missing"),
        (_fixture(ramified=[{"residue_degree": 1}]), "'probe': a ramified prime is an object with 'prime' and 'residue_degree'"),
        (_fixture(k_degree=[1, 0]), "'probe': 'k_degree' must be \\[p, q\\], integers with q != 0, got \\[1, 0\\]"),
        (_fixture(expected_h={"2": [1, 0]}), "'probe': 'expected_h' at 2 must be \\[p, q\\], .* got \\[1, 0\\]"),
        (_fixture(ramified=[{"prime": [2], "residue_degree": 1}]), "'probe': 'prime' must be an integer, got \\[2\\]"),
        (_fixture(k_degree=[1.5, 2]), "'probe': 'k_degree' must be \\[p, q\\], .* got \\[1.5, 2\\]"),
        (_fixture(ramified=[{"prime": 1, "residue_degree": 1}]), "'probe': a ramified prime needs prime >= 2"),
        (_fixture(row=6), "'probe': 'row' must be a list of indices, got 6"),
    ],
    ids=["no id", "no k_degree", "no expected_h", "no prime", "k_degree 1/0", "expected_h 1/0", "prime [2]", "k_degree 1.5/2", "prime 1", "row 6"],
)
def test_loader_names_the_case_and_key_of_a_malformed_field(doc, message):
    # once KeyError, ZeroDivisionError and TypeError escaped the loader
    with pytest.raises(ValueError, match=message):
        _parse_case(doc)


def test_fold_of_four_points():
    # y = x^2 doubles the indices at 0 and infinity and merges 1 with -1;
    # the correction is the one exact (1/2) ln 2
    assert _fold_four_points((3, 2, 2, 3)) == ((6, 2, 6), LogCombo(logs={2: F(1, 2)}))
    assert _fold_four_points((1, 3, 3, math.inf)) == ((2, 3, math.inf), LogCombo(logs={2: F(1, 2)}))
    with pytest.raises(ValueError, match="one index at both 1 and -1, got \\(3, 2, 4, 3\\)"):
        _fold_four_points((3, 2, 4, 3))


def test_table1_lookup_by_indices():
    for row in TABLE1:
        assert table1_row(*row.indices.m) is row
    with pytest.raises(KeyError, match="no Table 1 row"):
        table1_row(2, 3, 7)


def test_field_term_cancellation_required():
    case = get_case("disc6")
    # an optimal height with a stray field term: -2/3 where Yuan's has -1
    broken = ShimuraCase(
        id="broken",
        field_id="Q",
        ramified=case.ramified,
        optimal=LogCombo(q0=F(-1, 2), zeta_terms={"Q": F(-2, 3)}),
        k_degree=F(1, 3),
        expected_h={},
    )
    with pytest.raises(ValueError, match="field terms"):
        h_p_map(broken)
    # the field terms cancel, but a constant or a ln pi term survives
    for stray in (LogCombo(q0=F(1, 2)), LogCombo(c_logpi=F(1, 2))):
        with pytest.raises(ValueError, match="'broken': non-logarithmic terms survive"):
            h_p_map(replace(broken, optimal=LogCombo(q0=F(-1, 2), zeta_terms={"Q": F(-1)}) + stray))
    for degree in (F(0), F(-1, 3)):
        with pytest.raises(ValueError, match="'broken': orbifold degree must be positive"):
            replace(broken, k_degree=degree)
    # the residue norm is derived from the prime and the residue degree
    assert RamifiedPrime(prime=2, residue_degree=2).norm == 4
    assert [rp.norm for rp in case.ramified] == [2, 3]
    for prime, degree in ((1, 1), (0, 1), (2, 0), (3, -1)):
        with pytest.raises(ValueError, match="prime >= 2 and residue degree >= 1"):
            RamifiedPrime(prime=prime, residue_degree=degree)


def test_orbifold_degree():
    # sum(1 - 1/m) - 2 for (3, 4, 6) is 1/4 (a registry check); the sqrt6
    # fixture nevertheless carries k_degree 1/12, the value its reference
    # derivation uses (its displayed sum evaluates to 1/4, its stated result
    # is 1/12, and the final h(p) values need 1/12).  Fixture data
    # reproduces the source.
    assert get_case("sqrt6").k_degree == F(1, 12)
    # disc6's k_degree is the degree of the original four-point divisor
    # (3,3,2,2), which is twice the reduced three-point (6,2,6) degree
    assert get_case("disc6").k_degree == F(1, 3) == 2 * orbifold_degree(RamIndices((6, 2, 6)))


def test_table1_rows_validate_against_heights():
    # the rows' constants are a registry check (criterion 1); the full
    # Petersson combination evaluates consistently too
    for row in TABLE1:
        assert abs(row.pet_height().evaluate().value - h_pet(row.indices.weights()).value) < 1e-9, row.indices.m


def test_printed_deviations_are_exactly_as_recorded():
    """The printed variants of three table rows fail validation by exact,
    recognizable offsets (ln 5, ln 2 / 2, ln 3 / 6); shipping the validated
    values is what keeps the closed-form checks green."""
    by_label = {
        "table1:(5,5,5)": (table1_row(5, 5, 5), LogCombo(logs={5: F(1)})),
        "table1:(3,4,6)": (table1_row(3, 4, 6), LogCombo(logs={2: F(1, 2)})),
        "table2:(2,2,3)": (TABLE2[0], LogCombo(logs={3: F(1, 6)})),
    }
    for label, (row, offset) in by_label.items():
        printed = PRINTED_DEVIATIONS[label]
        assert printed - row.constant == offset
        # and the printed value really is off by that much numerically
        printed_val = printed.evaluate().value
        shipped_val = row.constant.evaluate().value
        assert printed_val - shipped_val == pytest.approx(offset.evaluate().value, abs=1e-12)
