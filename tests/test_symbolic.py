"""Exact log-combination arithmetic and rational reconstruction."""

import math
from fractions import Fraction

import numpy as np
import pytest

from orbiheight.lcombo import LogCombo, rationalize
from orbiheight.specfun import hurwitz_zeta_ds

F = Fraction


def random_combo(rng) -> LogCombo:
    def frac():
        return F(int(rng.integers(-40, 41)), int(rng.integers(1, 12)))

    return LogCombo(
        q0=frac(),
        c_logpi=frac(),
        logs={p: frac() for p in (2, 3, 5, 7) if rng.random() < 0.6},
        zeta_terms={f: frac() for f in ("Q", "Qsqrt2") if rng.random() < 0.4},
    )


def test_module_laws_exact():
    rng = np.random.default_rng(101)
    for _ in range(50):
        a, b, c = (random_combo(rng) for _ in range(3))
        r, s = F(3, 7), F(-5, 2)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a + b).scale(r) == a.scale(r) + b.scale(r)
        assert a.scale(r + s) == a.scale(r) + a.scale(s)
        assert a.scale(r).scale(s) == a.scale(r * s)
        assert a + LogCombo() == a
        assert a.scale(0).is_zero


def test_zero_entries_are_dropped():
    half_ln2 = LogCombo(logs={2: F(1, 2)})
    total = half_ln2 + half_ln2
    assert total.logs == {2: F(1)}
    assert (half_ln2 - half_ln2).logs == {}
    assert LogCombo(logs={2: F(0)}).is_zero


def test_evaluate_basics():
    c = LogCombo(q0=F(1, 2), c_logpi=F(1, 2))
    assert c.evaluate().value == pytest.approx(0.5 * (1.0 + math.log(math.pi)), abs=1e-15)
    zq = LogCombo(zeta_terms={"Q": F(1)})
    oracle = -12.0 * hurwitz_zeta_ds(1.0).value
    r = zq.evaluate()
    assert abs(r.value - oracle) <= max(r.err, 1e-10)


def test_evaluate_additivity():
    rng = np.random.default_rng(202)
    for _ in range(10):
        a, b = random_combo(rng), random_combo(rng)
        ra, rb, rab = a.evaluate(), b.evaluate(), (a + b).evaluate()
        assert abs(rab.value - (ra.value + rb.value)) <= ra.err + rb.err + 1e-12


def test_json_round_trip():
    rng = np.random.default_rng(303)
    for _ in range(20):
        a = random_combo(rng)
        assert LogCombo.from_json(a.to_json()) == a
    doc = LogCombo(q0=F(1, 2), logs={2: F(-19, 12)}, zeta_terms={"Qsqrt2": F(-1)}).to_json()
    assert '"q0": [1, 2]' in doc and '"2": [-19, 12]' in doc


def test_from_json_rejects_unknown_terms():
    # a term it cannot represent must not be dropped silently
    with pytest.raises(ValueError, match="bogus"):
        LogCombo.from_json('{"q0": [1, 2], "bogus": {"x": [1, 1]}}')
    with pytest.raises(ValueError, match="named"):
        LogCombo.from_json('{"q0": [1, 2], "named": {"EulerGamma": [1, 1]}}')
    # an empty unknown entry carries no term, as in documents holding "named": {}
    doc = '{"q0": [-1, 2], "logpi": [0, 1], "logs": {"2": [-1, 2]}, "zeta": {"Q": [-1, 1]}, "named": {}}'
    assert LogCombo.from_json(doc) == LogCombo(q0=F(-1, 2), logs={2: F(-1, 2)}, zeta_terms={"Q": F(-1)})


def test_rationalize():
    assert rationalize(11.0 / 18.0, max_den=100, tol=1e-9) == F(11, 18)
    assert rationalize(0.25, max_den=10, tol=1e-12) == F(1, 4)
    with pytest.raises(ValueError):
        rationalize(math.pi, max_den=50, tol=1e-9)
    # idempotent on exact rationals with small denominators
    for num in range(-12, 13):
        for den in range(1, 9):
            x = F(num, den)
            assert rationalize(float(x)) == x
    with pytest.raises(ValueError):
        rationalize(0.5, max_den=0)
