"""The period route to the canonical height.

For N points on the line, the 2N-real-dimensional Vandermonde integral

    Z_N = integral over C^N of
          prod_{i != j} |z_i - z_j|^(V/(N-1))
          * prod_i |z_i|^(-2 w1) |z_i - 1|^(-2 w2)  dA(z_1) ... dA(z_N)

has the closed-form product evaluation (with l(x) = Gamma(x)/Gamma(1-x) and
h = V / (2(N-1)))

    Z_N = N! (pi / l(h))^N  prod_{j=0}^{N-1}
              l((j+1) h) / [ l(w1 - j h) l(w2 - j h) l(w3 - j h) ],

and -(1/2N) log Z_N converges, with gap c_1/N + O(1/N^2), to the canonical
height of the log canonical bundle.  The same product with h < 0 serves the
Fano polarity (V < 0), where each l at a negative argument enters as -l
(positive on (-1, 0)), and +(1/2N) log Z_N converges to the canonical height
of the dual; the sign of V picks the polarity.  Every factor is positive
exactly when every argument of l lies in (-1, 1), which holds whenever Z_N
converges (see ``PeriodConfig``).  ``df_log_z`` evaluates the product in log
space (no overflow up to N = 10^6), with ln |l| from the odd-zeta kernel
``specfun._ln_l`` (the prefactor) and its array form ``_log_l`` (the N terms,
a block of j-values at a time in one workspace allocated once per call, so
its memory does not grow with N; equal weights share a row).  ``mc_oracle_z``
estimates Z_N for N in {2, 3} by direct integration, independent of
everything gamma: by quadrature, or by sampling from power-law disks into one
workspace per call, with f and q from one log per squared distance.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .heights import WeightVector, h_can
from .specfun import _EULER_GAMMA, _H_COEF_HORNER, EvalResult, _ln_l

__all__ = [
    "PeriodConfig",
    "df_log_z",
    "height_from_periods",
    "mc_oracle_z",
    "convergence_report",
    "report_to_csv",
]

Polarity = Literal["canonical", "anticanonical"]


_WALL_DISTANCE = 1e-3


@dataclass(frozen=True)
class PeriodConfig:
    """Input bundle for the period formulas.

    The denominator arguments w_i - j h of the product run from w_i to
    w_i - V/2; every one of them must stay at least ``_WALL_DISTANCE`` from
    the poles and zeros of l at 0 and 1, and |V| at least twice that.  Configurations closer than that
    to a stability wall are rejected rather than regularized.  The polarity
    must match the sign of V, and N |V| < 2(N - 1): where all N points meet,
    the integrand scales like r^(N V) against the volume r^(2N - 3) dr of the
    2(N - 1) relative coordinates, so otherwise Z_N diverges, and the
    numerator argument N h reaches -1 (a smaller cluster of k points needs
    only k |V| < 2(N - 1)).  The test reads |N h| < 1 in the arithmetic of
    that argument.  With these checks every argument of l lies in (-1, 1),
    where each factor of the product is positive.  They also keep every
    weight below 1, which the direct integration of Z_N needs at the
    punctures and at infinity.
    """

    N: int
    w: WeightVector
    polarity: Polarity = "canonical"

    def __post_init__(self):
        if self.N < 2:
            raise ValueError(f"N must be >= 2, got {self.N!r}")
        if self.polarity not in ("canonical", "anticanonical"):
            raise ValueError(f"unknown polarity {self.polarity!r}")
        wv = self.w if isinstance(self.w, WeightVector) else WeightVector(tuple(self.w))
        object.__setattr__(self, "w", wv)
        v = wv.volume
        d = _WALL_DISTANCE
        if (v if self.polarity == "canonical" else -v) < 2.0 * d:
            side = ">" if self.polarity == "canonical" else "<"
            raise ValueError(f"{self.polarity} polarity needs V {side} 0 by at least {2.0 * d}, got V = {v!r}")
        # w_i and w_i - V/2 in [d, 1 - d], the latter read as a range for w_i
        if not all(d <= x <= 1.0 - d and v / 2.0 + d <= x <= v / 2.0 + 1.0 - d for x in wv):
            raise ValueError(f"weights {wv.w} are within {d} of a stability wall")
        n = self.N
        if abs(n * (v / (2.0 * (n - 1)))) >= 1.0:
            raise ValueError(f"Z_{n} diverges where all {n} points meet: N |V| >= 2(N - 1) at V = {v!r}")


def _log_l(x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """ln |l(x)| for l(x) = Gamma(x)/Gamma(1-x) on (-1, 1) minus 0, vectorized.

    The array form of ``specfun._ln_l`` (the same 13 odd-zeta literals in
    the same order of operations), plus the branch below -1/2, where
    ln |l(x)| = ln |l(x + 1)| - 2 ln |x| with x + 1 exact.  The result goes
    to ``out`` (which holds u along the way) and the Horner pass runs in
    ``scratch`` (shape (2, *x.shape)); both are allocated when not given,
    and neither may share memory with x.
    """
    if out is None:
        out = np.empty_like(x)
    u2, series = np.empty((2, *x.shape)) if scratch is None else scratch
    high = x > 0.5
    low = x < -0.5
    np.copyto(out, x)
    np.subtract(1.0, x, out=out, where=high)
    np.add(x, 1.0, out=out, where=low)
    np.multiply(out, out, out=u2)
    series.fill(_H_COEF_HORNER[0])
    for c in _H_COEF_HORNER[1:]:
        series *= u2
        series += c
    series *= u2
    series += 2.0 * _EULER_GAMMA
    series *= out
    np.abs(out, out=u2)
    np.log(u2, out=u2)
    np.negative(u2, out=out)
    out -= series
    np.negative(out, out=out, where=high)
    if low.any():
        np.negative(x, out=series, where=low)
        np.log(series, out=series, where=low)
        np.multiply(series, 2.0, out=series, where=low)
        np.subtract(out, series, out=out, where=low)
    return out


_BLOCK = 8192


def _df_blocks(cfg: PeriodConfig) -> Iterator[np.ndarray]:
    """The per-j terms of log Z_N, _BLOCK values of j at a time.

    term_j = ln l((j + 1) h) - sum_i ln l(w_i - j h).  h = V/(2(N-1)) carries
    the sign of V, so one set of arguments serves both polarities; the Fano
    product reads -l(x) for each l at a negative argument, which has the
    same logarithm ln |l(x)|.  Equal weights share one row of arguments, so
    the workspace holds 1 + (number of distinct weights) rows of _BLOCK and
    is allocated once; each yielded array is a view into it that the next
    block overwrites.
    """
    n = cfg.N
    h = cfg.w.volume / (2.0 * (n - 1))
    distinct = list(dict.fromkeys(cfg.w))
    r1, r2, r3 = (distinct.index(w) + 1 for w in cfg.w)
    b = min(_BLOCK, n)
    x = np.empty((1 + len(distinct), b))
    logs = np.empty_like(x)
    scratch = np.empty((2, *x.shape))
    steps = np.arange(b, dtype=float)
    for lo in range(0, n, b):
        m = min(b, n - lo)
        xs, ls, ss = x[:, :m], logs[:, :m], scratch[:, :, :m]
        jh = ss[0, 0]
        np.add(steps[:m], lo, out=jh)  # j, exact
        np.add(jh, 1.0, out=xs[0])
        xs[0] *= h
        jh *= h
        for row, w in zip(xs[1:], distinct):
            np.subtract(w, jh, out=row)
        _log_l(xs, ls, ss)
        terms = ss[0, 0]
        np.subtract(ls[0], ls[r1], out=terms)
        terms -= ls[r2]
        terms -= ls[r3]
        yield terms


def _df_prefactor(cfg: PeriodConfig) -> float:
    """log N! + N (log pi - log |l(h)|), the j-independent part of log Z_N."""
    n = cfg.N
    h = cfg.w.volume / (2.0 * (n - 1))
    return math.lgamma(n + 1.0) + n * (math.log(math.pi) - _ln_l(h)[0])


def df_log_z(cfg: PeriodConfig) -> EvalResult:
    """log Z_N via the closed-form Gamma-ratio product, in log space.

    The N terms are evaluated _BLOCK at a time in one workspace, so memory
    stays flat in N; the block sums and |term| sums are combined by math.fsum.
    """
    sums, abs_sums = [], []
    for terms in _df_blocks(cfg):
        sums.append(float(np.sum(terms)))
        abs_sums.append(float(np.sum(np.abs(terms, out=terms))))
    prefactor = _df_prefactor(cfg)
    total = prefactor + math.fsum(sums)
    if not math.isfinite(total):  # an argument of l rounded onto 0 or -1
        raise ValueError(f"log Z_{cfg.N} is not finite for weights {cfg.w.w}")
    err = 1e-15 * (abs(prefactor) + math.fsum(abs_sums) + 1.0)
    return EvalResult(total, err)


def height_from_periods(cfg: PeriodConfig) -> EvalResult:
    """-(1/2N) log Z_N for the canonical polarity, +(1/2N) for the Fano one.

    Converges to the closed-form canonical height as N grows, with gap
    c_1/N + O(1/N^2); the free module of integer sections makes the lattice
    index factor 1, so log Z_N is the whole story.
    """
    lz = df_log_z(cfg)
    scale = -1.0 if cfg.polarity == "canonical" else 1.0
    return EvalResult(scale * lz.value / (2.0 * cfg.N), lz.err / (2.0 * cfg.N))


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    estimate: float
    gap: float


def convergence_report(w, polarity: Polarity, n_list: Sequence[int]) -> list[ConvergenceRow]:
    """Rows (N, height estimate, gap to the closed form) for each N."""
    wv = w if isinstance(w, WeightVector) else WeightVector(tuple(w))
    closed = h_can(wv)
    rows = []
    for n in n_list:
        est = height_from_periods(PeriodConfig(N=int(n), w=wv, polarity=polarity))
        rows.append(ConvergenceRow(N=int(n), estimate=est.value, gap=est.value - closed.value))
    return rows


def report_to_csv(rows: Sequence[ConvergenceRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["N", "estimate", "gap"])
    for r in rows:
        writer.writerow([r.N, f"{r.estimate:.12g}", f"{r.gap:.12g}"])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Direct integration of the Vandermonde integral (small N)
# ---------------------------------------------------------------------------


def _ln_s(out: np.ndarray, t: np.ndarray, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """out = ln(dx^2 + dy^2), with t overwritten; dx may be out and dy t."""
    np.multiply(dx, dx, out=out)
    out += np.multiply(dy, dy, out=t)
    return np.log(out, out=out)


def _add_disk(q: np.ndarray, e: np.ndarray, k, inside: np.ndarray) -> None:
    """q += k exp(e) where inside holds, with e overwritten."""
    np.multiply(np.exp(e, out=e), inside, out=e)
    q += np.multiply(e, k, out=e)


class _Mixture:
    """Importance mixture over configurations of N points, and the integrand
    it weighs: each of its five components draws a point
    center + (radius u^(1/alpha) e^{i theta})^flip.

    A point comes from a disk at 0 or 1 (alpha = 2 - 2 w, the local weight),
    the inverted disk matched to the decay at infinity or the uniform bulk
    disk; on the Fano side the pair component then moves one end of a random
    pair onto the disk about the other, matched to |z_i - z_j|^(2 coupling).
    All densities are exact, so f/q is bounded near every singular stratum.
    A disk's density alpha d^(alpha - 2) / (2 pi radius^alpha) is
    K exp(e ln d^2), e = -w1, -w2, 0, and w3 - 2 on the inverted disk (with
    the |z|^-4 of z -> 1/z).  The points are real x, y in a workspace for
    ``size`` configurations, allocated once.
    """

    def __init__(self, wv: WeightVector, n_points: int, coupling: float, polarity: Polarity, size: int):
        w1, w2, w3 = self.w = wv.w
        self.probs = np.array([0.28, 0.28, 0.22, 0.22])
        self.alpha = np.array([2.0 - 2.0 * w1, 2.0 - 2.0 * w2, 2.0 - 2.0 * w3, 2.0])
        self.center = np.array([0.0, 1.0, 0.0, 0.0])
        self.radius = np.array([0.75, 0.75, 0.75, 1.75])
        self.flip = np.array([1.0, 1.0, -1.0, 1.0])
        self.n_points, self.coupling = n_points, coupling
        self.pairs = list(itertools.combinations(range(n_points), 2)) if polarity == "anticanonical" else []
        self.pair_prob = 0.35 if self.pairs else 0.0
        self.pair_alpha, self.pair_radius = 2.0 + 2.0 * coupling, 0.5
        self.xy, self._q = np.empty((2, n_points, size)), np.empty((n_points, size))
        self._work, self._comp, self._mask = np.empty((6, size)), np.empty(size, np.intp), np.empty(size, bool)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """x, y of n configurations, shape (2, N, n), drawn point by point, then the pair moves."""
        edges = (self.probs.cumsum() / self.probs.sum())[:-1, None]
        scale, power = self.radius**self.flip, self.flip / self.alpha
        xy, comp, mask = self.xy[:, :, :n], self._comp[:n], self._mask[:n]
        v, u, ang, g = (row[:n] for row in self._work[:4])
        for xk, yk in zip(*xy):
            for row in (v, u, ang):
                rng.random(out=row)
            # rng.choice(4, p=probs) draws cdf.searchsorted(v, side="right"):
            # the number of edges cdf[k] <= v, which this counts faster
            np.sum(v >= edges, axis=0, out=comp)
            ang *= 2.0 * math.pi
            np.power(u, np.take(power, comp, out=g), out=u)
            u *= np.take(scale, comp, out=g)  # r
            np.multiply(u, np.cos(ang, out=g), out=xk)
            xk += np.take(self.center, comp, out=g)
            np.multiply(u, np.sin(ang, out=g), out=yk)
            yk *= np.take(self.flip, comp, out=g)
        if self.pairs:
            i = np.flatnonzero(np.less(rng.random(out=v), self.pair_prob, out=mask))
            pick = rng.integers(0, len(self.pairs), size=n)
            swap = rng.random(out=g) < 0.5  # randomize which end of the pair is the base
            rng.random(out=u)
            rng.random(out=ang)
            # row 2 p + swap holds (base, moved) for pair p
            base, moved = np.array([e for p in self.pairs for e in (p, p[::-1])])[2 * pick[i] + swap[i]].T
            r, a = self.pair_radius * u[i] ** (1.0 / self.pair_alpha), ang[i] * 2.0 * math.pi
            for c, trig in zip(xy, (np.cos(a), np.sin(a))):
                c[moved, i] = c[base, i] + r * trig
        return xy

    def weigh(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """ln f and q of the n configurations last drawn, from one log per
        squared distance (|z|^2, |z - 1|^2, |z_i - z_j|^2) shared by both."""
        w1, w2, w3 = self.w
        k = self.probs * self.alpha / (2.0 * math.pi * self.radius**self.alpha)
        lr = 2.0 * np.log(self.radius)  # ln radius^2
        (x, y), qs, mask = self.xy[:, :, :n], self._q[:, :n], self._mask[:n]
        lnf, q, l0, l1, t, e = (row[:n] for row in self._work)
        lnf.fill(0.0)
        for xk, yk, qk in zip(x, y, qs):
            _ln_s(l0, t, xk, yk)
            _ln_s(l1, t, np.subtract(xk, 1.0, out=l1), yk)
            np.multiply(np.less_equal(l0, lr[3], out=mask), k[3], out=qk)
            lnf += np.multiply(l0, -w1, out=e)
            _add_disk(qk, e, k[0], np.less_equal(l0, lr[0], out=mask))
            lnf += np.multiply(l1, -w2, out=e)
            _add_disk(qk, e, k[1], np.less_equal(l1, lr[1], out=mask))
            _add_disk(qk, np.multiply(l0, w3 - 2.0, out=e), k[2], np.greater_equal(l0, -lr[2], out=mask))
        q = np.multiply(np.prod(qs, axis=0, out=q), 1.0 - self.pair_prob, out=q)
        for i, j in itertools.combinations(range(self.n_points), 2):
            _ln_s(l0, t, np.subtract(x[i], x[j], out=l0), np.subtract(y[i], y[j], out=t))
            lnf += np.multiply(l0, self.coupling, out=t)
            if self.pairs:  # the pair moved from either end, times the other points
                np.add(qs[i], qs[j], out=t)
                for rest in set(range(self.n_points)) - {i, j}:
                    t *= qs[rest]
                t *= 0.5 * self.pair_prob / len(self.pairs) * self.pair_alpha / (2.0 * math.pi * self.pair_radius**self.pair_alpha)
                np.multiply(l0, (self.pair_alpha - 2.0) / 2.0, out=e)
                _add_disk(q, e, t, np.less_equal(l0, 2.0 * math.log(self.pair_radius), out=mask))
        return lnf, q


def mc_oracle_z(
    n_points: int,
    w,
    scheme: Literal["quadrature", "monte-carlo"] = "quadrature",
    budget: int | None = None,
    seed: int = 0,
    polarity: Polarity = "canonical",
) -> EvalResult:
    """Independent estimate of Z_N (N in {2, 3}) by direct 2N-dimensional
    integration of the Vandermonde integral.

    scheme "quadrature" (N = 2 only) uses tensorized polar tanh-sinh patches
    with the plane split around the punctures {0, 1, infinity}; scheme
    "monte-carlo" uses importance sampling from singularity-matched power-law
    disks, 2^15 configurations at a time from Philox keyed [seed, chunk] into
    one workspace, f/q in log space; budget, its sample count, belongs to that
    scheme alone.  The reported err is a quadrature refinement bound or three
    standard errors of the mean.  The weights and polarity must pass
    ``PeriodConfig(N, w, polarity)``, and the N = 3 Monte-Carlo scheme needs
    5V + 4 > 0 for a finite variance.
    """
    if n_points not in (2, 3):
        raise ValueError("direct integration is supported for N = 2 or 3 only")
    wv = PeriodConfig(N=n_points, w=w, polarity=polarity).w
    if budget is not None and budget < 2:  # one sample has no standard error
        raise ValueError(f"the oracle budget must be at least 2, got {budget!r}")
    coupling = wv.volume / (n_points - 1)
    if scheme == "quadrature":
        if n_points != 2:
            raise ValueError("the quadrature scheme is implemented for N = 2 only")
        if budget is not None:
            raise ValueError("the oracle budget applies only to the monte-carlo scheme")
        from ._pairquad import pair_integral

        return EvalResult(*pair_integral(wv, coupling))
    if scheme != "monte-carlo":
        raise ValueError(f"unknown scheme {scheme!r}")
    # Where three points meet at scale r, f ~ r^(3V) while the pair component
    # samples with density ~ r^V (no component places all three), over the
    # volume r^3 dr: the second moment of f/q, about r^(5V + 3) dr, diverges
    # unless 5V + 4 > 0, and the standard error with it.
    if n_points == 3 and 5.0 * wv.volume + 4.0 <= 0.0:
        raise ValueError(f"the N = 3 Monte-Carlo estimate has infinite variance where 5V + 4 <= 0, got V = {wv.volume!r}")

    budget = int(budget if budget is not None else (10**6 if n_points == 2 else 10**7))
    chunk = 1 << 15
    mix = _Mixture(wv, n_points, coupling, polarity, min(chunk, budget))
    total = total_sq = 0.0
    for lo in range(0, budget, chunk):
        n = min(chunk, budget - lo)
        mix.sample(np.random.Generator(np.random.Philox(key=[seed, lo // chunk])), n)
        ratio, q = mix.weigh(n)
        ratio = np.divide(np.exp(ratio, out=ratio), q, out=ratio)
        total += float(np.sum(ratio))
        total_sq += float(np.sum(np.multiply(ratio, ratio, out=q)))
    mean = total / budget
    var = max(total_sq / budget - mean * mean, 0.0)
    return EvalResult(mean, 3.0 * math.sqrt(var / budget))
