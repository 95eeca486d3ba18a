"""Closed-form normalized heights of weighted log pairs on the projective line.

The boundary divisor sits at {0, 1, infinity} with weights w = (w1, w2, w3)
in [0, 1]^3, and V = w1 + w2 + w3 - 2 is the degree of the log canonical
bundle.  Inside the stability region (0 <= w_i <= 1, w_i <= V/2 + 1) the
height of the log canonical bundle (V > 0) or its dual (V < 0), normalized by
the volume-1 Kahler-Einstein metric, is one closed form, :func:`h_can`, in
which the sign of V picks the polarity.  It is built from

    gamma(a, b) = integral over [a, b] of ln(Gamma(x)/Gamma(1-x)) dx,

evaluated as Q(b) - Q(a) via the odd-zeta series of :mod:`orbiheight.specfun`.
Each height sums four such terms, which ``_gamma`` caches with their error
bounds: the one cache of the kernel.  The wall V = 0 is excluded from the
closed form; its value is the log-Calabi-Yau normalization integral
(:func:`faltings_log_cy`), which the signed height approaches from both
sides.  That integral is the N = 1 case of the Dotsenko-Fateev Gamma product
behind the period route, so it too is a closed form, in three
ln(Gamma(x)/Gamma(1-x)) from the same series; the nested quadrature of the
integral lives in the tests as an independent oracle.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

from .specfun import _EULER_GAMMA, EvalResult, _ln_l, _q

__all__ = [
    "WeightVector",
    "RamIndices",
    "volume",
    "k_semistable",
    "h_can",
    "h_can_positive",
    "h_can_fano",
    "h_pet",
    "h_pi_normalized",
    "faltings_log_cy",
    "bound_linear_fano",
    "bound_semiample",
]

_WALL_TOL = 1e-12
_V0_TOL = 1e-9  # |V| of a log Calabi-Yau pair, and its klt distance below weight 1
_EPS = math.ulp(1.0)
_NEG_HALF_LN_PI = -0.5 * math.log(math.pi)
_D_SLOPE = 3.0 + math.log(2.0)  # the input-rounding slope of h_can's err, less the near-end log
_LN_INV_EPS = -math.log(_EPS)


@dataclass(frozen=True)
class WeightVector:
    """Weights of the divisor components at {0, 1, infinity}."""

    w: tuple[float, float, float]
    volume: float = field(init=False, repr=False, compare=False)  # V = w1 + w2 + w3 - 2

    def __post_init__(self):
        w1, w2, w3, v = _triple(self.w)
        object.__setattr__(self, "w", (w1, w2, w3))
        object.__setattr__(self, "volume", v)

    def __iter__(self):
        return iter(self.w)


@dataclass(frozen=True)
class RamIndices:
    """Ramification indices m_i in {1, 2, ...} or infinity; weight 1 - 1/m."""

    m: tuple[float, float, float]

    def __post_init__(self):
        m = tuple(self.m)
        if len(m) != 3:
            raise ValueError(f"a ramification triple has exactly three indices, got {len(m)}")
        for x in m:
            # the weight 1 - 1/m is taken in floats, so m must not overflow one
            if x != math.inf and not (1 <= x <= sys.float_info.max and int(x) == x):
                raise ValueError(f"ramification index must be a positive integer up to {sys.float_info.max:.6g} or inf, got {x!r}")
        object.__setattr__(self, "m", m)

    def weights(self) -> WeightVector:
        return WeightVector(self)


def _triple(w) -> tuple[float, float, float, float]:
    """(w1, w2, w3, V) of a WeightVector, of RamIndices or of any iterable of
    three weights in [0, 1]; the one place weights are checked."""
    if isinstance(w, WeightVector):
        return (*w.w, w.volume)
    if isinstance(w, RamIndices):
        w = [1.0 if x == math.inf else 1.0 - 1.0 / x for x in w.m]
    w = tuple(map(float, w))
    if len(w) != 3:
        raise ValueError("a weight vector has exactly three components")
    a, b, c = w
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0 and 0.0 <= c <= 1.0):  # false for NaN too
        bad = next(x for x in w if not 0.0 <= x <= 1.0)
        raise ValueError(f"weights must lie in [0, 1], got {bad!r}")
    return a, b, c, math.fsum(w) - 2.0


def _semistable(w1: float, w2: float, w3: float, v: float) -> bool:
    half = v / 2.0
    return w1 - half <= 1.0 and w2 - half <= 1.0 and w3 - half <= 1.0


def volume(w) -> float:
    """Degree V = w1 + w2 + w3 - 2 of the log canonical bundle."""
    return _triple(w)[3]


def k_semistable(w) -> bool:
    """0 <= w_i <= 1 and w_i <= V/2 + 1 (the latter is automatic once V >= 0).

    The wall is tested as w_i - V/2 <= 1, the upper end of the Gamma integral
    the closed form evaluates, so every K-semistable point has a height.
    """
    try:
        return _semistable(*_triple(w))
    except ValueError:
        return False


def _closed_form_weights(w, caller: str, sign: int = 0) -> tuple[float, float, float, float]:
    """(w1, w2, w3, V) of weights the closed form accepts: V off the wall, or
    of the given sign, and K-semistable; a refusal names the caller."""
    w1, w2, w3, v = _triple(w)
    if sign > 0 and v <= _WALL_TOL:
        raise ValueError(f"{caller} requires V > 0, got V = {v!r}")
    if sign < 0 and v >= -_WALL_TOL:
        raise ValueError(f"{caller} requires V < 0, got V = {v!r}")
    if abs(v) <= _WALL_TOL:
        raise ValueError(f"{caller} requires |V| > {_WALL_TOL:g}, got V = {v!r} (V = 0 is the faltings height)")
    if not _semistable(w1, w2, w3, v):
        bad = [i for i, x in enumerate((w1, w2, w3)) if x - v / 2.0 > 1.0]
        raise ValueError(f"weights {(w1, w2, w3)} are not K-semistable: the K-semistability bound w_i <= V/2 + 1 fails at index {bad}")
    return w1, w2, w3, v


@lru_cache(maxsize=1 << 12)
def _gamma(a: float, b: float) -> tuple[float, float, float]:
    """(gamma(a, b), |Q(b)| + |Q(a)|, err) of one term of :func:`h_can`, for
    a and b in [0, 1], with Q taken as Q - Q(0); err adds the two series
    bounds and the input rounding of the upper end b (see :func:`h_can`).

    The cache serves repeated weights (grids, tables, the Fermat diagonals),
    so a cached height adds four terms and takes no Q; a sweep of fresh
    weights misses it.
    """
    qb, eb, ln_inv = _q(b)
    qa, ea, _ = _q(a)
    d = _EPS * (b + 1.0)  # eps b for b itself, half of dV = 2 eps for V
    return qb - qa, abs(qb) + abs(qa), eb + ea + d * (_D_SLOPE + min(ln_inv, _LN_INV_EPS))


def _signed_height(w1: float, w2: float, w3: float, v: float) -> tuple[float, float]:
    """(s h, err) of :func:`h_can` for s = sign V, on weights that
    :func:`_closed_form_weights` has checked; plain floats, no result object.
    """
    half = v / 2.0
    bracket, mag, err = _gamma(0.0, abs(half))
    for a in (w1, w2, w3):
        g, m, e = _gamma(a, a - half)
        bracket += g
        mag += m
        err += e
    log_half = math.log(abs(half))
    tail = bracket / v
    signed = _NEG_HALF_LN_PI + 0.5 * math.copysign(1.0, v) * (1.0 - log_half) - tail
    # eight additions of at most half an ulp of mag each; dV moves ln|V|/2 and bracket/V
    err = (err + 4.0 * _EPS * mag + 2.0 * _EPS * (0.5 + abs(tail))) / abs(v)
    return signed, err + 4.0 * _EPS * (1.0 + abs(log_half) + abs(tail))


def _height_positive(w, caller: str) -> tuple[float, float]:
    """(value, err) of :func:`h_can_positive`, for callers that add to it."""
    return _signed_height(*_closed_form_weights(w, caller, 1))


def h_can(w) -> EvalResult:
    """Normalized canonical height of the log canonical bundle K when V > 0,
    and of its dual -K when V < 0.

    With s = sign V, the signed height s h is one closed form on both sides,

        s h = -(1/2) ln pi + (s/2)(1 - ln(|V|/2))
              - [gamma(0, |V|/2) + sum_i gamma(w_i, w_i - V/2)] / V,

    which tends to the log Calabi-Yau value (:func:`faltings_log_cy`) from
    either side; each gamma(a, b) is Q(b) - Q(a) from the series of
    :func:`orbiheight.specfun.loggamma_ratio_integral`.  Cusp weights
    w_i = 1 are allowed; V = 0 is not.  Every closed-form height here is
    this one float kernel, with one result object built per public call.

    err, over |V|, adds the eight series bounds, the rounding of the bracket's
    additions and the rounding of each upper end b: fsum(w) - 2 is off V by
    at most 2 eps, and b = w_i - V/2 by eps b plus half that.  A shift d of b
    moves gamma by at most d (3 + ln 2 + min(-ln x, -ln eps)), x = min(b, 1 - b),
    since |ln(Gamma(x)/Gamma(1-x))| <= |ln x| + |ln(1-x)| + 0.13 and within d
    of b a log term exceeds its value at b by at most ln 2, or integrates to
    at most d (1 + |ln d|) next to its singularity; the far end max(b, 1 - b)
    >= 1/2 contributes at most ln 2, and d >= eps caps the near end at -ln eps,
    whose -ln x the series has already taken.  The shift of V also enters
    ln|V| and 1/V directly; a relative floor covers the rounding of the
    outer sum.
    """
    w1, w2, w3, v = _closed_form_weights(w, "h_can")
    signed, err = _signed_height(w1, w2, w3, v)
    return EvalResult(signed if v > 0.0 else -signed, err)


def h_can_positive(w) -> EvalResult:
    """:func:`h_can` of the log canonical bundle; requires V > 0."""
    return EvalResult(*_height_positive(w, "h_can_positive"))


def h_can_fano(w) -> EvalResult:
    """:func:`h_can` of the anti-log-canonical bundle; requires V < 0."""
    signed, err = _signed_height(*_closed_form_weights(w, "h_can_fano", -1))
    return EvalResult(-signed, err)


def h_pet(w) -> EvalResult:
    """Height in the Petersson normalization (metric volume pi V/2), V > 0.

    Equals h_can_positive + (1/2) ln(pi V/2); the gamma terms are unchanged.
    """
    w1, w2, w3, v = _closed_form_weights(w, "h_pet", 1)
    value, err = _signed_height(w1, w2, w3, v)
    return EvalResult(value + 0.5 * math.log(math.pi * v / 2.0), err)


def h_pi_normalized(w) -> EvalResult:
    """Height wrt the Kahler-Einstein metric scaled to total volume pi.

    Shifts the volume-1 value by (1/2) ln pi with the sign of the polarity:
    + for the log canonical side (V > 0), - for the Fano side (V < 0).
    """
    w1, w2, w3, v = _closed_form_weights(w, "h_pi_normalized")
    signed, err = _signed_height(w1, w2, w3, v)
    value = signed if v > 0.0 else -signed
    return EvalResult(value + math.copysign(0.5 * math.log(math.pi), v), err)


def faltings_log_cy(w) -> EvalResult:
    """Normalization-integral height of a log Calabi-Yau pair (V = 0).

    Computes -(1/2) ln I for I = integral over C of
    |z|^(-2 w1) |z - 1|^(-2 w2) dA(z), which is finite exactly when all
    weights are < 1 (klt); w3 = 2 - w1 - w2 governs the decay at infinity.
    I is the N = 1 case of the complex Selberg (Dotsenko-Fateev) product,

        I = pi / (l(w1) l(w2) l(w3)),   l(x) = Gamma(x) / Gamma(1 - x),

    so the value is -(1/2) ln pi + (1/2) sum_i ln l(w_i), with ln l from the
    odd-zeta kernel of :mod:`orbiheight.specfun`.  err is half the three
    ln l bounds plus the rounding of ln pi and of the sum; the tests check
    the product against nested quadrature of I and a 2F1 radial reduction.

    Weights with 0 < |V| <= 1e-9 are accepted too, and the value is still the
    one at V = 0.  The signed height K(t) of :func:`h_can` at t = V/2 is
    -(1/2) ln pi + euler_gamma t/2 + (1/2) sum_i (Q(w_i - t) - Q(w_i))/(-t) plus
    terms of order t^3, and Q'' = psi(x) + psi(1 - x) is at most
    1/x + 1/(1 - x) + 2 euler_gamma in size, so err adds
    |t| (euler_gamma/2 + (1/4) sum_i (1/x + 1/(1 - x) + 2 euler_gamma)), x
    at the worse end of [w_i - t, w_i].  Here t is the exact V/2 of the given
    doubles, correctly rounded, not (fsum(w) - 2)/2: that reads 0 where the
    exact sum misses 2 by less than an ulp, and next to a corner of the klt
    simplex the height moves by some 1e8 times that.
    """
    w1, w2, w3, v = _triple(w)
    if abs(v) > _V0_TOL:
        raise ValueError(f"faltings_log_cy requires V = 0, got V = {v!r}")
    # w3 = 2 - w1 - w2 can land within rounding of 1 (e.g. w = (0.1, 0.9,
    # 0.9999999999999999)), where the integral is as divergent as at 1.
    if max(w1, w2, w3) >= 1.0 - _V0_TOL:
        raise ValueError("normalization integral diverges: a weight reaches 1 (pair is not klt)")
    (l1, e1), (l2, e2), (l3, e3) = _ln_l(w1), _ln_l(w2), _ln_l(w3)
    value = math.fsum((_NEG_HALF_LN_PI, 0.5 * l1, 0.5 * l2, 0.5 * l3))
    err = 0.5 * (e1 + e2 + e3) + _EPS * (abs(value) - _NEG_HALF_LN_PI)
    t = math.fsum((w1, w2, w3, -2.0)) / 2.0
    if t:
        total = 0.0
        for wi in (w1, w2, w3):
            x = wi - t
            total += max(1.0 / wi + 1.0 / (1.0 - wi), 1.0 / x + 1.0 / (1.0 - x)) + 2.0 * _EULER_GAMMA
        err += abs(t) * (0.5 * _EULER_GAMMA + 0.25 * total)
    return EvalResult(value, err)


def bound_linear_fano(w) -> float:
    """Linear lower bound for the Fano-side height:
    (1 + ln pi)/2 + (1/4)(1 + ln(3/4)) (w1 + w2 + w3)."""
    w1, w2, w3, _ = _triple(w)
    return 0.5 * (1.0 + math.log(math.pi)) + 0.25 * (1.0 + math.log(0.75)) * math.fsum((w1, w2, w3))


def bound_semiample(w) -> float:
    """Linear upper bound for the semi-ample-side height, touching at w = (2/3)^3:

        -(1/2) ln pi + (3/2) ln(Gamma(2/3)/Gamma(1/3)) - (3/8) ln 3 * (w1+w2+w3-2),

    the log Calabi-Yau value at (2/3)^3 plus a slope per unit of V that Gauss's
    digamma theorem reduces from (1/4) (euler_gamma + (psi(2/3) + psi(1/3))/2).
    One printed form applies the t-derivative along (t, t, t) to V = 3(t - 2/3)
    and writes Gamma'(1/3)/Gamma(2/3) for psi(1/3); that slope fails as a bound
    just past the wall (the tests keep it as a counterexample).
    """
    return faltings_log_cy((2.0 / 3.0,) * 3).value - 0.375 * math.log(3.0) * volume(w)
