"""Tensorized polar tanh-sinh quadrature for the two-point Vandermonde integral.

Z_2 = integral over C^2 of |z1 - z2|^(2V) prod_i |z_i|^(-2w1) |z_i - 1|^(-2w2).

The plane is split exactly into three star-shaped patches around the
singular points, with no leftover region:

    P0  = { |z| <= |z-1| } ∩ { |z| <= 2 }          (polar at 0)
    P1  = { |z-1| <= |z| } ∩ { |z-1| <= 2 }        (polar at 1)
    Pinf = { |z| >= 2 } ∩ { |z-1| >= 2 }           (polar at 0 in w = 1/z)

Each patch is radius <= r_max(angle) in its own polar chart, with r_max
piecewise-smooth (the switch angle is arccos(1/4) in all three charts).
Radial directions use tanh-sinh maps, which absorb the power singularities
at the centers; angles use per-segment Gauss-Legendre.

All arithmetic is real and in log space: each per-variable factor
|z|^(-2w1) |z-1|^(-2w2) (times the measure) is one exp of logs of the chart
radius and of the squared distance to the other puncture.

Complex conjugation fixes the integrand, the patches and the rule (each
angle segment is symmetric about a multiple of pi), so the a-side of each
cross pair and the theta loop of each same patch take one node of each
mirror pair at twice its weight, and a node on the real axis once.  The
weight-free nodes are built once per process.

Pairs of distinct patches are tensor products over the two node sets.  The
kernel |z1 - z2|^(2V) is symmetric, so each unordered pair of patches is
summed once and doubled; it is evaluated as exp(V ln(dx^2 + dy^2)) 32 rows
at a time in two buffers allocated once, so no temporary grows with the
square of the node count.

Same-patch pairs would put the |z1 - z2|^(2V) kink (or, for V < 0,
singularity) in the interior of the grid, so they are reparametrized by
radial ordering: z2 = c + s r e^{i(theta+psi)} with s in (0, 1], which moves
the diagonal to the corner s -> 1, psi -> 0 where tanh-sinh nodes cluster.
Per angle theta, one (s, psi r) grid holds the part of the integrand that
does not factor; everything that depends on one or two of the variables is
applied outside it.

The returned error is 2.5 times a two-level refinement difference.  At the
canonical points it covers the distance to the Gamma-ratio product several
times over, but on the anticanonical side it understates it: at (0.4, 0.5,
0.6) the rule is 1.3e-4 relative from the product, 21.7 times its err, and at
(0.5, 0.5, 0.5) 2.2 times.  Mending it is ROADMAP item 6.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .heights import WeightVector
from .periods import PeriodConfig, _ln_s

_SWITCH = math.acos(0.25)
_T_MAX = 3.1  # the tanh-sinh abscissae run over t in [-_T_MAX, _T_MAX]


@functools.cache
def tanh_sinh_01(n: int) -> tuple[np.ndarray, np.ndarray]:
    """~n tanh-sinh nodes and weights on (0, 1), clustering at both endpoints (read-only, shared)."""
    k = np.arange(-(n // 2), n // 2 + 1)
    h = 2.0 * _T_MAX / max(n - 1, 1)
    t = k * h
    u = 0.5 * math.pi * np.sinh(t)
    x = 0.5 * (1.0 + np.tanh(u))
    w = h * 0.25 * math.pi * np.cosh(t) / np.cosh(u) ** 2
    keep = (x > 0.0) & (x < 1.0) & (w > 1e-300)
    x, w = x[keep], w[keep]
    x.flags.writeable = w.flags.writeable = False
    return x, w


@dataclass(frozen=True)
class _Patch:
    center: float            # chart center on the real axis (0 for the inverted chart)
    inverted: bool           # chart variable is w = 1/z
    segments: tuple[tuple[float, float], ...]
    r_max: Callable[[np.ndarray], np.ndarray]


def _r_max_p0(theta: np.ndarray) -> np.ndarray:
    c = np.cos(theta)
    return np.where(c >= 0.25, 1.0 / (2.0 * c), 2.0)


def _r_max_p1(theta: np.ndarray) -> np.ndarray:
    c = np.cos(theta)
    return np.where(c <= -0.25, -1.0 / (2.0 * c), 2.0)


def _r_max_pinf(phi: np.ndarray) -> np.ndarray:
    c = np.cos(phi)
    root = (-c + np.sqrt(c * c + 3.0)) / 3.0
    return np.where(c >= 0.25, root, 0.5)


_PATCHES = (
    _Patch(0.0, False, ((-_SWITCH, _SWITCH), (_SWITCH, 2.0 * math.pi - _SWITCH)), _r_max_p0),
    _Patch(1.0, False, ((math.pi - _SWITCH, math.pi + _SWITCH), (math.pi + _SWITCH, 3.0 * math.pi - _SWITCH)), _r_max_p1),
    _Patch(0.0, True, ((-_SWITCH, _SWITCH), (_SWITCH, 2.0 * math.pi - _SWITCH)), _r_max_pinf),
)


@functools.cache
def _theta_nodes(patch: _Patch, n_theta: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(theta, weight, fold) of the per-segment Gauss-Legendre angles, read-only.

    theta -> 2k pi - theta maps a segment's nodes and weights onto themselves.
    The first len(fold) angles are each segment's lower half, fold 2, and the
    middle node of an odd one, on the real axis, fold 1; their mirrors follow.
    """
    total = sum(b - a for a, b in patch.segments)
    kept, mirrored = [], []
    for a, b in patch.segments:
        n = max(8, int(round(n_theta * (b - a) / total)))
        x, w = np.polynomial.legendre.leggauss(n)
        seg = np.stack([0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w, np.where(2 * np.arange(n) < n - 1, 2.0, 1.0)])
        kept.append(seg[:, : n - n // 2])
        mirrored.append(seg[:, n - n // 2 :])
    nodes = np.concatenate(kept + mirrored, axis=1)
    nodes.flags.writeable = False
    return nodes[0], nodes[1], nodes[2, : sum(k.shape[1] for k in kept)]


def _powers(patch: _Patch, wv: WeightVector) -> tuple[float, float, float]:
    """(a, b, sigma): the per-variable factor (excl. measure) is r^a q^(-b).

    r is the chart radius and q = r^2 + 2 sigma r cos(phi) + 1 the squared
    distance to the other finite puncture.  On direct charts the factor is
    |z|^(-2w1) |z-1|^(-2w2).  On the inverted chart the Jacobian |w|^(-4) and
    the pulled-back powers combine to |w|^(2w1+2w2-4) |1-w|^(-2w2); the
    coupling's |w|^(-2V) factor is *not* folded in here -- couplings are
    always computed from the representative points z = 1/w.

    The distance to the patch's own center is the exact chart radius r:
    recomposing center + r e^{i theta} and subtracting the center back would
    cancel catastrophically for tanh-sinh nodes with r ~ eps.  The other
    puncture is at distance >= 1/2 on every patch, so q >= 1/4 is safe.
    """
    w1, w2, _ = wv.w
    if patch.inverted:
        return 2.0 * w1 + 2.0 * w2 - 4.0, w2, -1.0
    if patch.center == 0.0:
        return -2.0 * w1, w2, -1.0
    return -2.0 * w2, w1, 1.0


def _variable_nodes(patch: _Patch, wv: WeightVector, n_theta: int, n_r: int):
    """Flat (x, y, weight*factor) of the points z = x + iy, and the folded weights of the first len(fold) rows."""
    theta, w_theta, fold = _theta_nodes(patch, n_theta)
    ts_x, ts_w = tanh_sinh_01(n_r)
    rmax = patch.r_max(theta)[:, None]
    r = rmax * ts_x
    cos, sin = np.cos(theta)[:, None], np.sin(theta)[:, None]
    a, b, sigma = _powers(patch, wv)
    # r dr dtheta times r^a q^(-b), in one exp
    log_f = (a + 1.0) * np.log(r) - b * np.log(r * (r + 2.0 * sigma * cos) + 1.0)
    vals = w_theta[:, None] * rmax * ts_w * np.exp(log_f)
    if patch.inverted:  # z = 1/w = e^{-i theta} / r
        x, y = cos / r, -sin / r
    else:
        x, y = patch.center + r * cos, r * sin
    return x.ravel(), y.ravel(), vals.ravel(), (vals[: len(fold)] * fold[:, None]).ravel()


_ROWS = 32  # 16 to 64 cost alike; at 32 the 1.1 MB fine-level buffers raise glibc's mmap threshold, sparing later calls page faults


def _cross_pairs(nodes, coupling: float) -> float:
    """Sum of va K vb over ordered pairs of distinct patches, K = |za - zb|^(2 coupling).

    K is symmetric, so each unordered pair is summed once and doubled.  The
    b-side sum is unchanged by conjugating za, so the a-side runs over the
    folded nodes.  K is built _ROWS rows at a time as
    exp(coupling log(dx^2 + dy^2)) in two buffers allocated once.
    """
    kern, dy2 = np.empty((2, _ROWS, max(len(x) for x, *_ in nodes)))
    total = 0.0
    for i, j in ((0, 1), (0, 2), (1, 2)):
        (xa, ya, _, va), (xb, yb, vb, _) = nodes[i], nodes[j]
        for lo in range(0, len(va), _ROWS):
            hi = min(lo + _ROWS, len(va))
            k = kern[: hi - lo, : len(xb)]
            t = dy2[: hi - lo, : len(xb)]
            _ln_s(k, t, np.subtract(xa[lo:hi, None], xb, out=k), np.subtract(ya[lo:hi, None], yb, out=t))
            k *= coupling
            np.exp(k, out=k)
            total += float(va[lo:hi] @ (k @ vb))
    return 2.0 * total


def _same_patch(patch: _Patch, wv: WeightVector, coupling: float, counts) -> float:
    """Radially ordered same-patch pair integral (doubled for the ordering).

    z1 = c + r e^{i theta}, z2 = c + s r e^{i(theta+psi)} with s = cap sx and
    cap = min(1, r_max(theta+psi)/r).  The coupling is (r |1 - s e^{i psi}|)^(2c)
    on direct charts and (|1 - s e^{i psi}| / (s r))^(2c) on the inverted one.
    Per theta, the (s, psi r) grid holds only -b ln q2 + c ln|1 - s e^{i psi}|^2;
    every factor of one or two of the variables is applied outside it.  As
    (theta, psi) -> (-theta, -psi) fixes the psi rule and the integrand,
    theta runs over the folded nodes.
    """
    n_theta, n_r, n_psi, n_s = counts
    theta, w_theta, fold = _theta_nodes(patch, n_theta)
    theta, w_theta = theta[: len(fold)], w_theta[: len(fold)] * fold
    ts_rx, ts_rw = tanh_sinh_01(n_r)
    sx, sw = tanh_sinh_01(n_s)
    # psi in (-pi, 0) and (0, pi), tanh-sinh clustering at psi = 0 where the
    # diagonal singularity sits
    psi_x, psi_w = tanh_sinh_01(n_psi)
    psi = np.concatenate([-math.pi * psi_x[::-1], math.pi * psi_x])
    w_psi = np.concatenate([math.pi * psi_w[::-1], math.pi * psi_w])
    a, b, sigma = _powers(patch, wv)
    nr = len(ts_rx)

    # c ln|1 - s e^{i psi}|^2, with |1 - s e^{i psi}|^2 = (1-s)^2 + 4 s sin^2(psi/2)
    # stable near s=1, psi=0
    def log_rel(s, shs):
        return coupling * np.log((1.0 - s) ** 2 + 4.0 * s * shs)

    shs = np.repeat(np.sin(0.5 * psi) ** 2, nr)   # (npsi nr,)
    rel_uncapped = log_rel(sx[:, None], shs)      # (ns, npsi nr): s = sx where cap = 1
    # q2 = r2^2 + 2 sigma r2 cos(phi) + 1 with r2 = sx cr, cr = cap r: a rank-3
    # product of s_pow with (cr^2, 2 sigma cos(phi) cr, 1)
    s_pow = np.stack([sx * sx, sx, np.ones_like(sx)], axis=1)
    # r2^a' s ws = cr^a' cap^2 * sx^(a'+1) sw, where the inverted chart's
    # 1/r2^(2c) joins the power a' and the direct charts' r^(2c) joins the r^3
    # of the measure
    a2 = a - 2.0 * coupling if patch.inverted else a
    a1 = a + 3.0 if patch.inverted else a + 3.0 + 2.0 * coupling
    w_s = sx ** (a2 + 1.0) * sw
    grid = np.empty((len(sx), len(psi) * nr))
    rows = np.empty((3, len(psi), nr))
    rows[2] = 1.0
    ts_tiled = np.tile(ts_rx, len(psi))

    total = 0.0
    for th, wth, rmax0 in zip(theta, w_theta, patch.r_max(theta)):
        r = rmax0 * ts_rx                       # (nr,)
        phi = th + psi
        cap = np.minimum(1.0, patch.r_max(phi)[:, None] / r).ravel()  # (npsi nr,)
        cr = cap * (rmax0 * ts_tiled)
        np.multiply(cr, cr, out=rows[0].ravel())
        np.multiply((2.0 * sigma * np.cos(phi))[:, None], cr.reshape(len(psi), nr), out=rows[1])
        np.matmul(s_pow, rows.reshape(3, -1), out=grid)
        np.log(grid, out=grid)
        grid *= -b
        capped = cap < 1.0
        own = grid[:, capped]
        grid += rel_uncapped
        grid[:, capped] = own + log_rel(cap[capped] * sx[:, None], shs[capped])
        np.exp(grid, out=grid)
        per_pr = np.exp(a2 * np.log(cr) + 2.0 * np.log(cap)) * (w_s @ grid)
        f1 = np.exp(a1 * np.log(r) - b * np.log(r * (r + 2.0 * sigma * math.cos(th)) + 1.0))
        total += wth * float((w_psi @ per_pr.reshape(len(psi), nr)) @ (rmax0 * ts_rw * f1))
    return 2.0 * total


def _level(wv: WeightVector, coupling: float, scale: float) -> float:
    n_theta, n_r, n_psi, n_s = (int(c * scale) for c in (36, 30, 20, 28))
    total = _cross_pairs([_variable_nodes(p, wv, n_theta, n_r) for p in _PATCHES], coupling)
    for p in _PATCHES:
        total += _same_patch(p, wv, coupling, (n_theta, n_r, n_psi, n_s))
    return total


def pair_integral(cfg: PeriodConfig) -> tuple[float, float]:
    """(value, error estimate) for Z_2 of a config with N = 2, at the coupling exponent 2 h = V."""
    wv, coupling = cfg.w, 2.0 * cfg.h
    coarse = _level(wv, coupling, 1.0)
    fine = _level(wv, coupling, 1.4)
    err = 2.5 * abs(fine - coarse) + 1e-12 * abs(fine)
    return float(fine), float(err)
