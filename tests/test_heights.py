"""Closed-form heights: classical values, symmetries, bounds, the V = 0 wall."""

import itertools
import math
import statistics
import warnings

import mp_refs
import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbiheight import heights
from orbiheight.fields import dedekind_log_deriv, get_field
from orbiheight.heights import (
    RamIndices,
    WeightVector,
    bound_linear_fano,
    bound_semiample,
    faltings_log_cy,
    h_can,
    h_can_fano,
    h_can_positive,
    h_pet,
    h_pi_normalized,
    k_semistable,
    volume,
)
from orbiheight.shimura import _FOLD_CORRECTION
from orbiheight.specfun import EvalResult, _q
from orbiheight.verify import semistable_grid

LN = math.log
HALF_1_LNPI = 0.5 * (1.0 + LN(math.pi))
with mpmath.workdps(30):
    ZETA_LOG_DERIV_Q = float(mp_refs.zeta_log_deriv())  # zeta'(-1)/zeta(-1)


def test_volume_and_types():
    assert volume((0.0, 0.0, 0.0)) == -2.0
    assert volume((1.0, 1.0, 1.0)) == 1.0
    assert volume((5 / 6, 5 / 6, 5 / 6)) == pytest.approx(0.5, abs=1e-15)
    assert RamIndices((2, 3, math.inf)).weights().w == (0.5, 1.0 - 1.0 / 3.0, 1.0)
    assert WeightVector([1, 0.5, 0]).w == (1.0, 0.5, 0.0)  # any iterable, converted to floats
    assert WeightVector(iter((0.25, 0.5, 0.75))).volume == -0.5
    for n in (2, 4):
        with pytest.raises(ValueError, match="exactly three components"):
            WeightVector((0.5,) * n)
    for bad in (1.2, -0.1, math.nan, math.inf, -math.inf):  # NaN too, which a min/max test lets through
        for i in range(3):
            w = [0.5, 0.5, 0.5]
            w[i] = bad
            with pytest.raises(ValueError, match=rf"must lie in \[0, 1\], got {bad!r}"):
                WeightVector(tuple(w))
    for bad in (2.5, "2", None, 2j):  # a string, None or a complex is refused as a fraction is, not by a TypeError
        with pytest.raises(ValueError, match=rf"ramification index must be a positive integer .* got {bad!r}$"):
            RamIndices((2, 3, bad))
    for m in ((2, 3), (2, 3, 4, 5)):  # checked by the type, not only when weights are taken
        with pytest.raises(ValueError, match="exactly three indices"):
            RamIndices(m)


def test_k_semistable():
    assert k_semistable((0.0, 0.0, 0.0))  # V = -2, bound 0, all weights 0
    assert not k_semistable((0.9, 0.0, 0.0))  # bound 0.45 < 0.9
    assert k_semistable((0.5, 0.25, 0.25))  # on the wall w1 = V/2 + 1
    # 5e-14 past the wall: outside, as the closed form sees it (w3 - V/2 > 1)
    assert not k_semistable((0.0, 0.0, 1e-13))
    with pytest.raises(ValueError, match="K-semistable"):
        h_can((0.0, 0.0, 1e-13))
    rng = np.random.default_rng(5)
    for _ in range(50):
        w = tuple(rng.uniform(0.0, 1.0, size=3))
        if sum(w) >= 2.0:
            assert k_semistable(w)  # automatic when V >= 0


def test_h_can_positive_table_row_values():
    # indices (2, 3, inf): f + ln(pi V/2)/2 + 1/2 + zeta'/zeta(-1) = -ln2/2 - ln3/4
    w = (0.5, 2.0 / 3.0, 1.0)
    lhs = h_can_positive(w).value + 0.5 * LN(math.pi * volume(w) / 2.0) + 0.5 + ZETA_LOG_DERIV_Q
    assert lhs == pytest.approx(-LN(2.0) / 2.0 - LN(3.0) / 4.0, abs=1e-9)
    # indices (4, 4, 4) in the Petersson normalization, with the sqrt-2 field term
    w = (0.75, 0.75, 0.75)
    fs = get_field("Qsqrt2")
    lhs = h_pet(w).value + 0.5 + dedekind_log_deriv(fs).value / fs.degree
    assert lhs == pytest.approx(-19.0 / 12.0 * LN(2.0), abs=1e-9)
    with pytest.raises(ValueError):
        h_can_positive((0.5, 0.5, 0.5))


def test_h_can_fano_values():
    assert h_can_fano((0.0, 0.0, 0.0)).value == pytest.approx(HALF_1_LNPI, abs=1e-12)
    assert h_can_fano((0.5, 0.5, 0.5)).value == pytest.approx(HALF_1_LNPI + LN(2.0) / 2.0, abs=1e-9)
    # indices (2, 3, 3): 1/2 + ln(pi)/2 + ln(48)/8
    w = (0.5, 2.0 / 3.0, 2.0 / 3.0)
    assert h_can_fano(w).value == pytest.approx(0.5 + 0.5 * LN(math.pi) + LN(48.0) / 8.0, abs=1e-9)
    with pytest.raises(ValueError):
        h_can_fano((5 / 6, 5 / 6, 5 / 6))


@st.composite
def _stable_weights(draw):
    """A point of the stability region, drawn directly rather than filtered
    out of the unit cube, where Hypothesis's lean to edge values such as 0
    puts most draws outside it. There w_i <= V/2 + 1 reads w_i <= w_j + w_k,
    so w = (b + c, a + c, a + b) with a, b, c >= 0, and w_i <= 1 bounds each
    pairwise sum by 1."""
    a = draw(st.floats(min_value=0.0, max_value=1.0))
    b = draw(st.floats(min_value=0.0, max_value=1.0 - a))
    c = draw(st.floats(min_value=0.0, max_value=1.0 - max(a, b)))
    return (min(b + c, 1.0), min(a + c, 1.0), min(a + b, 1.0))


@settings(max_examples=60, deadline=None)
@given(_stable_weights())
@example((1.0, 0.9, 1.0))
@example((0.0, 0.0, 0.0))
@example((0.75, 0.75, 0.75))
@example((0.5, 0.5, 0.5))
@example((0.75, 0.75, math.nextafter(0.501, 1.0)))  # V = +1e-3
@example((0.75, 0.75, math.nextafter(0.499, 0.0)))  # V = -1e-3
# an err without the rounding of the outer sum and of V understates the error here
@example((0.0006046746622185382, 0.0006046746622185382, 0.0))
# ... and one without the rounding of w_i - V/2 and V times |ln(Gamma(x)/Gamma(1-x))| here
@example((0.9927918151951868, 0.0006043232460881643, 0.9921875))
def test_h_can_against_mpmath(w):
    # both polarities of the stability region, |V| >= 1e-3; the guard
    # drops only float-rounding strays off the wall and the band |V| < 1e-3
    assume(k_semistable(w) and abs(volume(w)) >= 1e-3)
    r = h_can(w)
    with mpmath.workdps(20):
        assert abs(mpmath.mpf(r.value) - mp_refs.height(w)) <= r.err


def _seeded_stable_weights(seed: int, n: int):
    """n points of the stability region with |V| >= 1e-3, made as _stable_weights
    makes them, from uniform draws of a numpy generator."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a = rng.uniform(0.0, 1.0)
        b = rng.uniform(0.0, 1.0 - a)
        c = rng.uniform(0.0, 1.0 - max(a, b))
        w = (min(b + c, 1.0), min(a + c, 1.0), min(a + b, 1.0))
        if k_semistable(w) and abs(volume(w)) >= 1e-3:
            out.append(w)
    return out


def test_h_can_err_calibration():
    # the other half of an honest err: not wildly pessimistic.  The median of
    # err over the actual error, which a double result can promise no better
    # than to half an ulp, stays within 10^3; the per-point maximum is not
    # bounded yet (about 1.4e4 at this seed)
    ratios = []
    for w in _seeded_stable_weights(2025, 600):
        r = h_can(w)
        d = abs(mpmath.mpf(r.value) - mp_refs.height_series(w))
        assert d <= r.err
        ratios.append(r.err / max(float(d), math.ulp(r.value) / 2.0))
    assert statistics.median(ratios) <= 1e3


def _h_can_two_log_oracle(w) -> tuple[float, float]:
    """(value, err) of h_can as computed with two logs per gamma term for the
    input rounding of its upper end b: d (3 + |ln max(b, d)| + |ln max(1 - b, d)|).
    The same operations in the same order as the kernel otherwise."""
    eps = math.ulp(1.0)
    w1, w2, w3 = (float(x) for x in w)
    v = math.fsum((w1, w2, w3)) - 2.0
    s = math.copysign(1.0, v)
    half = v / 2.0
    bracket = mag = err = 0.0
    for a, b in ((0.0, abs(half)), (w1, w1 - half), (w2, w2 - half), (w3, w3 - half)):
        qb, eb, _ = _q(b)
        qa, ea, _ = _q(a)
        bracket += qb - qa
        mag += abs(qb) + abs(qa)
        d = eps * (b + 1.0)
        err += eb + ea + d * (3.0 + abs(math.log(max(b, d))) + abs(math.log(max(1.0 - b, d))))
    log_half = math.log(abs(half))
    tail = bracket / v
    signed = -0.5 * math.log(math.pi) + 0.5 * s * (1.0 - log_half) - tail
    err = (err + 4.0 * eps * mag + 2.0 * eps * (0.5 + abs(tail))) / abs(v)
    return s * signed, err + 4.0 * eps * (1.0 + abs(log_half) + abs(tail))


@settings(max_examples=300, deadline=None)
@given(_stable_weights())
@example((1.0, 1.0, 1.0))
@example((1.0, 0.9, 1.0))
@example((1.0, 0.0, 1.0))
@example((0.0, 0.0, 0.0))
@example((0.5, 0.5, 0.5))
@example((0.75, 0.75, math.nextafter(0.501, 1.0)))  # V = +1e-3
@example((0.75, 0.75, math.nextafter(0.499, 0.0)))  # V = -1e-3
@example((0.25, 0.25, 0.5))  # an upper end at 1/2
def test_h_can_matches_the_two_log_oracle(w):
    # the value bit for bit; the err's input-rounding term, which takes -ln x
    # from the series in place of two logs, never below the two-log term and
    # at most 10% above it in total
    assume(k_semistable(w) and abs(volume(w)) >= 1e-3)
    value, err = _h_can_two_log_oracle(w)
    r = h_can(w)
    assert r.value.hex() == value.hex()
    assert err <= r.err <= 1.1 * err


def _seven_q_signed_height(w1, w2, w3, v) -> tuple[float, float]:
    """(s h, err) of h_can assembled from seven Q values: Q(|V|/2), then
    Q(b) - Q(a) for each weight, in the kernel's order of operations; the
    reference the cached kernel is held to bit for bit."""
    eps = math.ulp(1.0)
    d_slope, ln_inv_eps = 3.0 + math.log(2.0), -math.log(eps)
    half = v / 2.0
    b = abs(half)
    bracket, err, ln_inv = _q(b)
    mag = abs(bracket)
    err += eps * (b + 1.0) * (d_slope + min(ln_inv, ln_inv_eps))
    for a in (w1, w2, w3):
        b = a - half
        qb, eb, ln_inv = _q(b)
        qa, ea, _ = _q(a)
        bracket += qb - qa
        mag += abs(qb) + abs(qa)
        d = eps * (b + 1.0)
        err += eb + ea + d * (d_slope + min(ln_inv, ln_inv_eps))
    log_half = math.log(abs(half))
    tail = bracket / v
    signed = -0.5 * math.log(math.pi) + 0.5 * math.copysign(1.0, v) * (1.0 - log_half) - tail
    err = (err + 4.0 * eps * mag + 2.0 * eps * (0.5 + abs(tail))) / abs(v)
    return signed, err + 4.0 * eps * (1.0 + abs(log_half) + abs(tail))


def _same_as_seven_q(w) -> bool:
    w1, w2, w3, v = heights._closed_form_weights(w, "test")
    got, want = heights._signed_height(w1, w2, w3, v), _seven_q_signed_height(w1, w2, w3, v)
    return [x.hex() for x in got] == [x.hex() for x in want]


@st.composite
def _near_wall_weights(draw):
    """A point with w3 = 2 + V - w1 - w2 for 1e-4 <= |V| <= 1e-2, of either sign."""
    v = draw(st.floats(min_value=1e-4, max_value=1e-2)) * draw(st.sampled_from((-1.0, 1.0)))
    w1 = draw(st.floats(min_value=max(0.0, v), max_value=1.0))
    w2 = draw(st.floats(min_value=max(0.0, 1.0 + v - w1), max_value=1.0))
    return w1, w2, min(max(2.0 + v - w1 - w2, 0.0), 1.0)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_stable_weights(), _near_wall_weights()))
@example((1.0, 1.0, 1.0))
@example((1.0, 0.9, 1.0))
@example((1.0, 0.0, 1.0))
@example((0.0, 0.0, 0.0))
@example((0.75, 0.75, math.nextafter(0.5001, 1.0)))  # V = +1e-4
@example((0.75, 0.75, math.nextafter(0.4999, 0.0)))  # V = -1e-4
def test_cached_gamma_terms_match_the_seven_q_assembly(w):
    # value and err bit for bit, cusps and 1e-4 <= |V| <= 1e-2 included
    assume(k_semistable(w) and abs(volume(w)) > 1e-12)
    assert _same_as_seven_q(w)


def test_cached_gamma_terms_match_the_seven_q_assembly_on_grid_and_fermat_diagonals():
    diagonals = [(1.0 - 1.0 / m,) * 3 for m in range(4, 61)]
    grid = list(semistable_grid(20))
    assert len(diagonals) == 57 and len(grid) > 3000
    for w in diagonals + grid:
        assert _same_as_seven_q(w), w


def test_gamma_cache_serves_a_repeated_grid():
    # the cache holds whole heights: a first pass misses once per point, a
    # second pass is one hit per point
    cache = heights._signed_height
    cache.cache_clear()
    grid = list(semistable_grid(20))
    first = [h_can(w) for w in grid]
    info = cache.cache_info()
    assert info.misses == info.currsize == len(grid) == 3800 and info.hits == 0
    assert [h_can(w) for w in grid] == first
    info = cache.cache_info()
    assert (info.hits, info.misses, info.currsize) == (len(grid), len(grid), len(grid))


def test_height_cache_holds_the_grid_and_the_fermat_diagonals():
    # why maxsize is 4,096: the registry checks the 20^3 grid and the 57
    # Fermat diagonals (m = 4..60), and together they fit, so no check evicts
    # the heights of another
    diagonals = {heights._closed_form_weights((1.0 - 1.0 / m,) * 3, "test") for m in range(4, 61)}
    grid = {heights._closed_form_weights(w, "test") for w in semistable_grid(20)}
    assert len(diagonals) == 57 and len(grid) == 3800
    assert len(diagonals | grid) <= heights._signed_height.cache_info().maxsize == 1 << 12


def test_a_fresh_height_takes_seven_q_and_a_repeated_one_none(monkeypatch):
    calls = []

    def counted(x):
        calls.append(x)
        return _q(x)

    monkeypatch.setattr(heights, "_q", counted)
    cache = heights._signed_height
    for w in ((0.75, 0.75, 0.75), (0.25, 0.25, 0.25), (1.0, 0.5, 0.75), (0.7, 0.7, 0.6 + 1e-4)):
        args = heights._closed_form_weights(w, "test")
        cache.cache_clear()
        calls.clear()
        cold = cache(*args)
        assert len(calls) == 7, w
        warm = cache(*args)
        assert len(calls) == 7 and cache.cache_info().hits == 1, w
        uncached = cache.__wrapped__(*args)
        assert [x.hex() for x in cold] == [x.hex() for x in warm] == [x.hex() for x in uncached], w


def test_each_closed_form_height_builds_one_result(monkeypatch):
    built = []

    class Counted(EvalResult):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(heights, "EvalResult", Counted)
    calls = [
        (h_can, ((0.75, 0.75, 0.75),)),
        (h_can, ((0.25, 0.25, 0.25),)),
        (h_can_positive, ((0.75, 0.75, 0.75),)),
        (h_can_fano, ((0.25, 0.25, 0.25),)),
        (h_pet, ((0.75, 0.75, 0.75),)),
        (h_pi_normalized, ((0.75, 0.75, 0.75),)),
        (h_pi_normalized, (RamIndices((2, 3, 3)),)),
    ]
    for fn, args in calls:
        built.clear()
        r = fn(*args)
        assert len(built) == 1 and r is built[0], fn.__name__


_BAD_WEIGHTS = [(0.5, 0.5), (0.5,) * 4, (1.2, 0.5, 0.5), (0.5, math.nan, 0.5), (0.5, 0.5, -math.inf), (-0.1, 0.5, 0.5)]
_BAD_FOR_THE_CLOSED_FORM = [(1.0, 0.5, 0.5), (0.0, 0.0, 1e-13), (0.9, 0.0, 0.0), (0.25, 0.25, 0.25), (0.75, 0.75, 0.75)]


def _message(fn, w) -> str:
    with pytest.raises(ValueError) as info:
        fn(w)
    return str(info.value)


@pytest.mark.parametrize("w", _BAD_WEIGHTS)
def test_bad_weights_give_one_message_on_every_route(w):
    expected = _message(WeightVector, w)
    for fn in (h_can, h_can_positive, h_can_fano, h_pet, h_pi_normalized, volume, faltings_log_cy):
        assert _message(fn, w) == expected, fn.__name__
        assert _message(fn, list(w)) == expected, fn.__name__
    assert not k_semistable(w)


@pytest.mark.parametrize("w", _BAD_FOR_THE_CLOSED_FORM)
def test_closed_form_refusals_read_the_same_for_tuples_and_weight_vectors(w):
    wv = WeightVector(w)
    for fn in (h_can, h_can_positive, h_can_fano, h_pet, h_pi_normalized):
        try:
            fn(w)
        except ValueError as exc:
            assert _message(fn, wv) == _message(fn, list(w)) == str(exc), fn.__name__
        else:
            assert fn(wv) == fn(w), fn.__name__


def test_refusals_name_the_caller_and_its_input():
    assert _message(h_pet, (0.25, 0.25, 0.25)) == "h_pet requires V > 0, got V = -1.25"
    assert _message(h_pi_normalized, (0.5, 0.75, 0.75)).startswith("h_pi_normalized requires |V| > 1e-12")
    assert _message(h_can_fano, (0.75, 0.75, 0.75)) == "h_can_fano requires V < 0, got V = 0.25"
    assert _message(lambda w: four_point_h_can(*w), (3.0, 0.5, 0.5)) == "weights must lie in [0, 1], got 3.0"
    assert _message(lambda w: four_point_h_can(*w), (0.5, 0.5, 0.5)) == "four_point_h_can requires V > 0, got V = 0.0"
    assert _message(h_can, (0.9, 0.0, 0.0)).endswith("the K-semistability bound w_i <= V/2 + 1 fails at index [0]")


def test_two_point_identity():
    rng = np.random.default_rng(11)
    for _ in range(25):
        t = float(rng.uniform(0.0, 0.95))
        w = (t, 0.0, t)
        v = volume(w)
        assert h_can_fano(w).value == pytest.approx(0.5 * (1.0 + LN(math.pi) - LN(-v / 2.0)), abs=1e-9)


def test_h_pet_relation_and_values():
    w = (0.5, 2.0 / 3.0, 1.0)
    assert h_pet(w).value - h_can_positive(w).value == pytest.approx(0.5 * LN(math.pi * volume(w) / 2.0), abs=1e-12)
    # (2, 3, inf): h_pet = -zeta'/zeta(-1) - 1/2 - ln(12)/4
    assert h_pet(w).value == pytest.approx(-ZETA_LOG_DERIV_Q - 0.5 - 0.25 * LN(12.0), abs=1e-9)
    # (6, 2, 6) row
    w = RamIndices((6, 2, 6)).weights()
    lhs = h_pet(w).value + 0.5 + ZETA_LOG_DERIV_Q
    assert lhs == pytest.approx(-LN(2.0) / 6.0 + LN(3.0) / 8.0, abs=1e-9)


def test_h_pi_normalized():
    assert h_pi_normalized((0.0, 0.0, 0.0)).value == pytest.approx(0.5, abs=1e-12)
    w = (0.5, 2.0 / 3.0, 1.0)
    assert h_pi_normalized(w).value == pytest.approx(h_can_positive(w).value + 0.5 * LN(math.pi), abs=1e-15)
    with pytest.raises(ValueError):
        h_pi_normalized((2 / 3, 2 / 3, 2 / 3))


# Reference formulas kept with their tests: the package has no caller for them.


def four_point_h_can(w0: float, w1: float, winf: float) -> EvalResult:
    """Canonical height for the divisor at {0, 1, -1, infinity} with weights
    (w0, w1, w1, winf): the float form of the Shimura loader's fold.

    The degree-two substitution y = x^2 folds the pair {1, -1} together,
    reducing to the three-point weights (1 + (w0-1)/2, w1, 1 + (winf-1)/2)
    at the cost of the fold's exact correction, (1/2) ln 2.
    """
    heights._triple((w0, w1, winf))  # a refusal names the given weights, not the folded ones
    value, err = heights._height_positive((1.0 + (w0 - 1.0) / 2.0, w1, 1.0 + (winf - 1.0) / 2.0), "four_point_h_can")
    return EvalResult(value + _FOLD_CORRECTION.evaluate().value, err)


def shift_by_a(h: float, w, a: int) -> float:
    """Height after moving the middle divisor point from 1 to an integer a >= 1.

    The change of variables z -> a z rescales the period integrand and shifts
    the height by -(sum_i w_i / 2 - (w1 + w2)) ln a, where w1, w2 are the
    weights at the two finite points.
    """
    if a < 1 or int(a) != a:
        raise ValueError(f"shift requires an integer a >= 1, got {a!r}")
    w1, w2, w3, _ = heights._triple(w)
    bracket = (w1 + w2 + w3) / 2.0 - (w1 + w2)
    return h - bracket * math.log(a)


def fujita_height_pn(n: int) -> float:
    """Canonical height of projective n-space with empty boundary.

    (1/2) (n+1)^(n+1) [ (n+1) H_n - n + ln(pi^n / n!) ],  H_n = sum_{k<=n} 1/k.
    Normalizing by [Q:Q] * deg(-K)^n * (n+1) recovers the n = 1 value
    (1 + ln pi)/2 used as the sharp Fano bound.
    """
    if n < 1 or int(n) != n:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    harmonic = math.fsum(1.0 / k for k in range(1, n + 1))
    return 0.5 * (n + 1) ** (n + 1) * ((n + 1) * harmonic - n + math.log(math.pi**n / math.factorial(n)))


def test_four_point_reduction():
    # indices (3, 3; 2, 2) at {0, 1, -1, inf} fold to (6, 2, 6) at {0, 1, inf}
    w0 = winf = 2.0 / 3.0
    w1 = 0.5
    lhs = four_point_h_can(w0, w1, winf).value
    rhs = h_can_positive((5.0 / 6.0, 0.5, 5.0 / 6.0)).value + 0.5 * LN(2.0)
    assert lhs == pytest.approx(rhs, abs=1e-12)
    # degenerate cusps at 0 and inf
    lhs = four_point_h_can(1.0, 0.9, 1.0).value
    assert lhs == pytest.approx(h_can_positive((1.0, 0.9, 1.0)).value + 0.5 * LN(2.0), abs=1e-12)
    # substitution identity for generic weights
    rng = np.random.default_rng(13)
    for _ in range(10):
        a, b, c = rng.uniform(0.55, 0.95, size=3)
        red = (1.0 + (a - 1.0) / 2.0, b, 1.0 + (c - 1.0) / 2.0)
        if volume(red) <= 1e-3 or not k_semistable(red):
            continue
        assert four_point_h_can(a, b, c).value == pytest.approx(
            h_can_positive(red).value + 0.5 * LN(2.0), abs=1e-12
        )


def test_shift_by_a():
    w = (0.5, 2.0 / 3.0, 1.0)
    assert shift_by_a(1.234, w, 1) == 1.234
    # bracket = sum w / 2 - (w1 + w2) = 13/12 - 7/6 = -1/12
    h0 = 0.0
    shifted = shift_by_a(h0, w, 1728)
    assert shifted == pytest.approx((1.0 / 12.0) * LN(12.0**3), abs=1e-12)
    with pytest.raises(ValueError):
        shift_by_a(0.0, w, 0)


def test_fujita_height():
    assert fujita_height_pn(1) == pytest.approx(2.0 * (1.0 + LN(math.pi)), abs=1e-12)
    assert fujita_height_pn(2) == pytest.approx(0.5 * 27.0 * (3.0 * 1.5 - 2.0 + LN(math.pi**2 / 2.0)), abs=1e-12)
    # normalized by [Q:Q] * deg(-K) * (n+1) = 2 * 2 it recovers the Fano base value
    assert fujita_height_pn(1) / 4.0 == pytest.approx(h_can_fano((0.0, 0.0, 0.0)).value, abs=1e-12)
    with pytest.raises(ValueError):
        fujita_height_pn(0)


def test_faltings_log_cy():
    # the value and the one-sided limits are registry checks (criterion 7)
    assert faltings_log_cy((2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0)).err <= 1e-6
    with pytest.raises(ValueError):
        faltings_log_cy((0.5, 0.5, 1.0))  # non-klt: divergent
    w = (0.1, 0.9, 2.0 - 0.1 - 0.9)
    assert w[2] < 1.0  # 0.9999999999999999: within rounding of the klt wall
    with pytest.raises(ValueError):
        faltings_log_cy(w)
    with pytest.raises(ValueError):
        faltings_log_cy((0.5, 0.5, 0.5))  # V != 0


def test_heights_take_no_log_gamma(monkeypatch):
    # ln Gamma(x) - ln Gamma(1 - x) comes from the odd-zeta kernel specfun._ln_l
    def refuse(x):
        raise AssertionError("math.lgamma called")

    monkeypatch.setattr(math, "lgamma", refuse)
    assert faltings_log_cy((0.6, 0.7, 0.7)).value == pytest.approx(-1.6065176710273832, abs=1e-14)
    assert faltings_log_cy((0.5, 0.75, 0.75 + 1e-10)).err > 0.0  # the |V| slope term too
    for w in ((0.75, 0.75, 0.75), (0.25, 0.25, 0.25), (1.0, 0.5, 0.75)):
        h_can(w)


def test_faltings_radial_reduction_cross_check():
    # independent radial form: I = int_0^1 (r^(1-2w1) + r^(1-2w3)) G(r) dr with
    # G the angular ring integral 2 pi 2F1(w2, w2; 1; r^2)
    from scipy.integrate import quad
    from scipy.special import hyp2f1

    w1, w2, w3 = 0.7, 0.75, 0.55

    def radial(r):
        return (r ** (1.0 - 2.0 * w1) + r ** (1.0 - 2.0 * w3)) * 2.0 * math.pi * hyp2f1(w2, w2, 1.0, r * r)

    total = 0.0
    for lo, hi in ((0.0, 0.5), (0.5, 0.95), (0.95, 1.0)):
        total += quad(radial, lo, hi, epsabs=1e-11, epsrel=1e-11, limit=300)[0]
    assert faltings_log_cy((w1, w2, w3)).value == pytest.approx(-0.5 * LN(total), abs=1e-7)


_KLT_MARGIN = 1e-8


@settings(max_examples=300, deadline=None)
@given(
    st.floats(min_value=_KLT_MARGIN, max_value=1.0 - _KLT_MARGIN),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(2.0 * _KLT_MARGIN, 0.5)
@example(1.0 - _KLT_MARGIN, 0.0)
@example(1.0 - _KLT_MARGIN, 1.0)
@example(2.0 / 3.0, 0.5)
def test_faltings_log_cy_error_bound_against_mpmath(w1, u):
    # w2 sweeps the segment of the V = 0 slice where all weights lie in
    # [1e-8, 1 - 1e-8]; w3 closes the sum to 2
    lo, hi = max(_KLT_MARGIN, 1.0 - w1 + _KLT_MARGIN), 1.0 - _KLT_MARGIN
    w2 = lo + u * (hi - lo)
    w = (w1, w2, 2.0 - w1 - w2)
    assume(max(w) < 1.0 - 1e-9 and min(w) > 0.0)
    r = faltings_log_cy(w)
    d = abs(mpmath.mpf(r.value) - _log_cy_reference_mp(w))
    assert d <= r.err
    # err is not wildly pessimistic: within 10^3 of the actual error, which a
    # double result can promise no better than to half an ulp
    assert r.err <= 1e3 * max(d, math.ulp(r.value) / 2.0) + 1e-15


def _log_cy_reference_mp(w) -> mpmath.mpf:
    """What faltings_log_cy(w) approximates: the wall value when the exact V
    of the given doubles is 0, and else the signed height at that V, at 60
    digits, where the bracket of the closed form cancels to order V and the
    sum of the doubles is exact."""
    v = math.fsum((*w, -2.0))  # 0 exactly when the exact sum is
    if v == 0.0:
        with mpmath.workdps(30):
            return mp_refs.wall(w)
    return math.copysign(1.0, v) * mp_refs.height_series(w, dps=60)


@pytest.mark.parametrize(
    "w",
    [
        (0.3, 0.9, 0.8 + 5e-10),  # V = 5e-10
        (2.2e-9, 1.0 - 1.5e-9, 1.0 - 1.5e-9),  # V = -8e-10, next to a corner of the klt simplex
        (0.99999999, 2.0000000050247593e-08, 0.9999999899999998),  # V = -2.2e-16, the next double below 2
        (2e-08, 0.9999999900000001, 0.9999999899999998),  # fsum(w) - 2 reads 0, the exact V is -1.0e-16
    ],
)
def test_faltings_log_cy_err_counts_the_volume(w):
    # within |V| <= 1e-9 the value is the wall value at w, which misses the
    # signed height by 3.1e-9 to 0.19 at these points, against a rounding
    # err of about 1e-13; err adds |V|/2 times a bound on its slope, with V
    # the exact sum of the doubles less 2
    r = faltings_log_cy(w)
    d = abs(mpmath.mpf(r.value) - _log_cy_reference_mp(w))
    assert d > 1e-9
    assert d <= r.err <= 2.0 * d


def test_faltings_log_cy_on_tenths_lattice():
    points = [k for k in itertools.product(range(1, 10), repeat=3) if sum(k) == 20]
    assert len(points) == 36
    for k in points:
        r = faltings_log_cy(tuple(x / 10 for x in k))
        with mpmath.workdps(30):
            exact = mp_refs.wall([mpmath.mpf(x) / 10 for x in k])
            assert abs(mpmath.mpf(r.value) - exact) <= r.err, k


def _normalization_integral_quad(w1, w2, w3) -> float:
    """I = integral over C of |z|^(-2 w1) |z - 1|^(-2 w2) dA(z) by nested quadrature.

    In polar coordinates the plane folds onto the unit disk (the exterior by
    z -> 1/z): I = integral_0^1 (r^(1-2 w1) + r^(1-2 w3)) G(r) dr, with G(r)
    the angular integral of |r e^{i theta} - 1|^(-2 w2).
    """
    from scipy import integrate

    def ring(t):
        if t == 0.0:
            return 2.0 * math.pi
        v, _ = integrate.quad(
            lambda th: (1.0 - 2.0 * t * math.cos(th) + t * t) ** (-w2),
            0.0, math.pi, epsabs=1e-12, epsrel=1e-12, limit=200,
        )
        return 2.0 * v

    def radial(r):
        return (r ** (1.0 - 2.0 * w1) + r ** (1.0 - 2.0 * w3)) * ring(r)

    total = 0.0
    # near r = 1 the angular integrand is close to divergent at theta = 0;
    # QUADPACK still resolves it, so its roundoff warnings carry no signal
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for lo, hi in ((0.0, 0.5), (0.5, 0.9), (0.9, 1.0)):
            total += integrate.quad(radial, lo, hi, epsabs=1e-10, epsrel=1e-10, limit=400)[0]
    return total


@pytest.mark.parametrize("w", [(2.0 / 3.0,) * 3, (0.5, 0.75, 0.75), (0.75, 0.6, 0.65)])
def test_faltings_nested_quadrature_cross_check(w):
    assert faltings_log_cy(w).value == pytest.approx(-0.5 * LN(_normalization_integral_quad(*w)), abs=1e-7)


def test_linear_bounds():
    assert bound_linear_fano((0.0, 0.0, 0.0)) == pytest.approx(HALF_1_LNPI, abs=1e-15)
    slope = 0.25 * (1.0 + LN(0.75))
    assert slope == pytest.approx(0.178, abs=5e-4)
    assert bound_linear_fano((0.2, 0.3, 0.1)) == pytest.approx(HALF_1_LNPI + slope * 0.6, abs=1e-12)
    # the Fano height sits above the linear lower bound
    rng = np.random.default_rng(23)
    for _ in range(40):
        w = tuple(float(x) for x in rng.uniform(0.0, 0.6, size=3))
        if not k_semistable(w) or volume(w) > -1e-3:
            continue
        assert h_can_fano(w).value >= bound_linear_fano(w) - 1e-9

    w23 = (2.0 / 3.0,) * 3
    const = -0.5 * LN(math.pi) + 1.5 * (math.lgamma(2.0 / 3.0) - math.lgamma(1.0 / 3.0))
    assert bound_semiample(w23) == pytest.approx(const, abs=1e-12)
    # the printed slope applies the t-derivative to V directly and writes
    # Gamma'(1/3)/Gamma(2/3) for psi(1/3); it differs away from the touching
    # point and fails as a bound just past the wall, which is why it is not shipped
    ratio = math.exp(math.lgamma(1.0 / 3.0) - math.lgamma(2.0 / 3.0))
    second = float(mpmath.digamma(1.0 / 3.0)) * ratio
    printed_slope = 0.75 * (-float(mpmath.digamma(1.0)) + 0.5 * (float(mpmath.digamma(2.0 / 3.0)) + second))

    def printed(w):
        return const + printed_slope * (math.fsum(w) - 2.0)

    w = (0.8, 0.8, 0.8)
    assert abs(bound_semiample(w) - printed(w)) > 1e-3
    assert h_can_positive((0.67,) * 3).value > printed((0.67,) * 3)
    # the default slope is the actual touching-point derivative per unit V
    t0 = 2.0 / 3.0
    num_slope = (h_can_positive((t0 + 4e-4,) * 3).value - h_can_positive((t0 + 2e-4,) * 3).value) / 6e-4
    assert bound_semiample((t0 + 1.0 / 3.0,) * 3) - const == pytest.approx(num_slope, abs=5e-3)
    # semi-ample heights sit below the upper bound, asymmetric weights included
    for t in np.linspace(0.67, 0.99, 12):
        w = (float(t),) * 3
        assert h_can_positive(w).value <= bound_semiample(w) + 1e-9
    rng = np.random.default_rng(29)
    for _ in range(40):
        w = tuple(float(x) for x in rng.uniform(0.4, 1.0, size=3))
        if volume(w) < 1e-3 or not k_semistable(w):
            continue
        assert h_can_positive(w).value <= bound_semiample(w) + 1e-9


def test_boundary_continuity_of_closed_forms():
    # continuity onto the stability wall w1 = V/2 + 1 (evaluation by continuity)
    w_wall = (1.0, 0.5, 0.5)  # V = 0, excluded; take a wall with V > 0 instead
    assert volume(w_wall) == pytest.approx(0.0, abs=1e-15)
    w = (1.0, 0.75, 0.75)  # V = 0.5, w1 = 1 = V/2 + 0.75 < V/2 + 1: interior cusp case
    inside = h_can_positive(w).value
    near = h_can_positive((1.0 - 1e-9, 0.75, 0.75)).value
    assert inside == pytest.approx(near, abs=1e-6)
