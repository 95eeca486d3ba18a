"""Allocating twin of ``periods.df_log_z``, for the tests only.

It evaluates the Gamma-ratio product as the package first did: ``np.where``
for the branches of ln |l|, four argument rows per block whatever the
weights, and fresh arrays for every intermediate.  It reads the same 13
literals ``specfun._H_COEF_HORNER`` (the degree-12 Chebyshev economization
of the odd-zeta series in u^2 on [0, 1/4], truncation error below 2.6e-17,
which the heights' Q series shares) and runs the same Horner pass.  Each element goes through the same operations
in the same order as in ``periods``, so the in-place workspace there must
reproduce these values bit for bit.
"""

import math

import numpy as np

from orbiheight.periods import _BLOCK, PeriodConfig
from orbiheight.specfun import _EULER_GAMMA, _H_COEF_HORNER


def log_l(x: np.ndarray) -> np.ndarray:
    """ln |l(x)| on (-1, 1) minus 0, by the Chebyshev-economized odd-zeta
    series of ``periods._log_l``: the 13 shared literals, truncation error below 2.6e-17."""
    high = x > 0.5
    low = x < -0.5
    u = np.where(high, 1.0 - x, np.where(low, x + 1.0, x))
    u2 = u * u
    series = np.zeros_like(u)
    for c in _H_COEF_HORNER:
        series *= u2
        series += c
    series *= u2
    series += 2.0 * _EULER_GAMMA
    series *= u
    out = -np.log(np.abs(u))
    out -= series
    np.negative(out, out=out, where=high)
    if low.any():
        out[low] -= 2.0 * np.log(-x[low])
    return out


def df_terms(cfg: PeriodConfig, lo: int, hi: int) -> np.ndarray:
    """term_j = ln l((j + 1) h) - sum_i ln l(w_i - j h) for j in [lo, hi)."""
    j = np.arange(lo, hi, dtype=float)
    h = cfg.w.volume / (2.0 * (cfg.N - 1))
    x = np.empty((4, hi - lo))
    np.multiply(j + 1.0, h, out=x[0])
    jh = j * h
    for row, w in zip(x[1:], cfg.w):
        np.subtract(w, jh, out=row)
    logs = log_l(x)
    return logs[0] - logs[1] - logs[2] - logs[3]


def df_log_z(cfg: PeriodConfig) -> tuple[float, float]:
    """(log Z_N, err) reduced block by block as ``periods.df_log_z`` does."""
    sums, abs_sums = [], []
    for lo in range(0, cfg.N, _BLOCK):
        terms = df_terms(cfg, lo, min(lo + _BLOCK, cfg.N))
        sums.append(float(np.sum(terms)))
        abs_sums.append(float(np.sum(np.abs(terms))))
    n = cfg.N
    prefactor = math.lgamma(n + 1.0) + n * (math.log(math.pi) - float(log_l(np.array([cfg.w.volume / (2.0 * (n - 1))]))[0]))
    return prefactor + math.fsum(sums), 1e-15 * (abs(prefactor) + math.fsum(abs_sums) + 1.0)
