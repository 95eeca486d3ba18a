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
space (no overflow up to N = 10^6), with ln |l| from the odd-zeta series the
closed-form heights use, a block of j-values at a time in one workspace
allocated once per call, so its memory does not grow with N and the blocks
allocate nothing; equal weights share one row of ln |l|.  ``mc_oracle_z``
estimates Z_N for N in {2, 3} by direct integration, independent of
everything gamma.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterator, Literal, Sequence

import numpy as np

from .heights import WeightVector, h_can
from .specfun import _EULER_GAMMA, _ZETA_ODD, EvalResult

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


# 2 zeta(k) / k, the coefficient of -u^k in ln l(u), for odd k = 45 down to 3:
# Horner order in u^2.
_L_COEF_HORNER = [2.0 * z / k for k, z in zip(range(3, 47, 2), _ZETA_ODD)][::-1]


def _log_l(x: np.ndarray, out: np.ndarray | None = None, scratch: np.ndarray | None = None) -> np.ndarray:
    """ln |l(x)| for l(x) = Gamma(x)/Gamma(1-x) on (-1, 1) minus 0, vectorized.

    For |u| <= 1/2, Gamma(u) = Gamma(1 + u)/u and DLMF 5.7.3 give

        ln |l(u)| = -ln |u| - 2 euler_gamma u - 2 sum_{k odd >= 3} zeta(k) u^k / k,

    summed through k = 45 by Horner in u^2 <= 1/4, the odd-zeta literals of
    the closed-form heights.  Above 1/2, l(x) = 1/l(1 - x); below -1/2,
    ln |l(x)| = ln |l(x + 1)| - 2 ln |x|; both 1 - x and x + 1 are exact there.
    l > 0 on (0, 1) and l < 0 on (-1, 0), so no sign is returned.

    The result goes to ``out`` (which holds u along the way) and the Horner
    pass runs in ``scratch`` (shape (2, *x.shape)); both are allocated when
    not given, and neither may share memory with x.
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
    series.fill(_L_COEF_HORNER[0])
    for c in _L_COEF_HORNER[1:]:
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
    return math.lgamma(n + 1.0) + n * (math.log(math.pi) - float(_log_l(np.array([h]))[0]))


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


class _Mixture:
    """Per-variable importance mixture matched to the integrand's punctures.

    Components: power-law disks at 0 and 1 (radial exponent matched to the
    local weight), an inverted power-law tail matched to the decay at
    infinity, and a uniform bulk disk.  All densities are exact, so f/q is
    bounded near every singular stratum and the estimator variance is finite.
    """

    def __init__(self, wv: WeightVector):
        w1, w2, w3 = wv.w
        self.radius = 0.75
        self.bulk_radius = 1.75
        self.exps = (w1, w2, w3)
        self.probs = np.array([0.28, 0.28, 0.22, 0.22])
        # rng.choice(4, p=probs) draws cdf.searchsorted(v, side="right") for
        # v = rng.random(n): the number of edges cdf[k] <= v, as counted in sample
        self._cdf = self.probs.cumsum()
        self._cdf /= self._cdf[-1]
        # per component, z = center + radius u^power e^{i flip ang}: power-law
        # disks at 0 and 1 (power 1/(2 - 2w)), the inverted tail
        # z = 1/(0.75 u^(1/(2 - 2w3)) e^{i ang}) and the uniform bulk disk
        self._center = np.array([0.0, 1.0, 0.0, 0.0])
        self._radius = np.array([self.radius, self.radius, 1.0 / self.radius, self.bulk_radius])
        self._power = np.array([1.0 / (2.0 - 2.0 * w1), 1.0 / (2.0 - 2.0 * w2), -1.0 / (2.0 - 2.0 * w3), 0.5])
        self._flip = np.array([1.0, 1.0, -1.0, 1.0])

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        v = rng.random(n)
        comp = (v >= self._cdf[0]).astype(np.intp)
        comp += v >= self._cdf[1]
        comp += v >= self._cdf[2]
        u = rng.random(n)
        ang = rng.random(n) * 2.0 * math.pi
        r = self._radius[comp] * u ** self._power[comp]
        z = np.empty(n, dtype=complex)
        z.real = self._center[comp] + r * np.cos(ang)
        z.imag = self._flip[comp] * r * np.sin(ang)
        return z

    def _comp_density(self, d: np.ndarray, wexp: float) -> np.ndarray:
        # radial density (2-2w) r^(1-2w) / R^(2-2w) over angle 2 pi r
        alpha = 2.0 - 2.0 * wexp
        out = np.where(
            d <= self.radius,
            alpha * np.maximum(d, 1e-300) ** (-2.0 * wexp) / (2.0 * math.pi * self.radius**alpha),
            0.0,
        )
        return out

    def density(self, z: np.ndarray) -> np.ndarray:
        w1, w2, w3 = self.exps
        d0 = np.abs(z)
        q = self.probs[0] * self._comp_density(d0, w1)
        q += self.probs[1] * self._comp_density(np.abs(z - 1.0), w2)
        # inverted tail: q(z) = q_u(1/z) |z|^(-4)
        az = np.maximum(d0, 1e-300)
        q += self.probs[2] * self._comp_density(1.0 / az, w3) * az**-4.0
        q += self.probs[3] * np.where(d0 <= self.bulk_radius, 1.0 / (math.pi * self.bulk_radius**2), 0.0)
        return q


def _log_integrand(z: np.ndarray, wv: WeightVector, coupling: float) -> np.ndarray:
    """log of the Vandermonde integrand on configurations z of shape (n, N)."""
    w1, w2, _ = wv.w
    out = -2.0 * w1 * np.log(np.abs(z)).sum(axis=1) - 2.0 * w2 * np.log(np.abs(z - 1.0)).sum(axis=1)
    n_pts = z.shape[1]
    for i in range(n_pts):
        for j in range(i + 1, n_pts):
            out += 2.0 * coupling * np.log(np.abs(z[:, i] - z[:, j]))
    return out


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
    "monte-carlo" uses importance sampling from a singularity-matched mixture
    with a counter-based generator (reproducible for a fixed seed); budget, its
    sample count, belongs to that scheme alone.  The reported err is a
    quadrature refinement bound or the statistical standard error.  The
    weights and polarity must pass ``PeriodConfig(N, w, polarity)``, and the
    N = 3 Monte-Carlo scheme needs 5V + 4 > 0 for a finite variance.
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

        value, err = pair_integral(wv, coupling)
        return EvalResult(value, err)
    if scheme != "monte-carlo":
        raise ValueError(f"unknown scheme {scheme!r}")
    # Where three points meet at scale r, f ~ r^(3V) while the pair component
    # samples with density ~ r^V (no component places all three), over the
    # volume r^3 dr: the second moment of f/q, about r^(5V + 3) dr, diverges
    # unless 5V + 4 > 0, and the standard error with it.
    if n_points == 3 and 5.0 * wv.volume + 4.0 <= 0.0:
        raise ValueError(f"the N = 3 Monte-Carlo estimate has infinite variance where 5V + 4 <= 0, got V = {wv.volume!r}")

    budget = int(budget if budget is not None else (10**6 if n_points == 2 else 10**7))
    mix = _Mixture(wv)
    pair_prob = 0.35 if polarity == "anticanonical" else 0.0
    pairs = [(i, j) for i in range(n_points) for j in range(i + 1, n_points)]
    delta_alpha = 2.0 + 2.0 * coupling  # radial density exponent for the diagonal component
    delta_radius = 0.5

    chunk = 1 << 15
    n_chunks = max(1, (budget + chunk - 1) // chunk)
    total = 0.0
    total_sq = 0.0
    count = 0
    for c in range(n_chunks):
        rng = np.random.Generator(np.random.Philox(key=[seed, c]))
        m = min(chunk, budget - count)
        z = np.empty((m, n_points), dtype=complex)
        for k in range(n_points):
            z[:, k] = mix.sample(rng, m)
        if pair_prob > 0.0:
            sel = rng.random(m) < pair_prob
            pick = rng.integers(0, len(pairs), size=m)
            swap = rng.random(m) < 0.5  # randomize which end of the pair is the base
            u = rng.random(m)
            ang = rng.random(m) * 2.0 * math.pi
            r = delta_radius * u ** (1.0 / delta_alpha)
            delta = r * np.exp(1j * ang)
            for p_idx, (i, j) in enumerate(pairs):
                mm = sel & (pick == p_idx)
                z[mm & ~swap, j] = z[mm & ~swap, i] + delta[mm & ~swap]
                z[mm & swap, i] = z[mm & swap, j] + delta[mm & swap]

        # mixture density over the configuration
        dens_single = np.ones(m)
        per_var = [mix.density(z[:, k]) for k in range(n_points)]
        for k in range(n_points):
            dens_single = dens_single * per_var[k]
        q = (1.0 - pair_prob) * dens_single
        if pair_prob > 0.0:
            alpha = delta_alpha
            for i, j in pairs:
                d = np.abs(z[:, j] - z[:, i])
                qd = np.where(
                    d <= delta_radius,
                    alpha * np.maximum(d, 1e-300) ** (alpha - 2.0) / (2.0 * math.pi * delta_radius**alpha),
                    0.0,
                )
                rest = np.ones(m)
                for k in range(n_points):
                    if k not in (i, j):
                        rest = rest * per_var[k]
                q = q + pair_prob / len(pairs) * rest * 0.5 * (per_var[i] + per_var[j]) * qd
        logf = _log_integrand(z, wv, coupling)
        ratio = np.exp(logf) / q
        total += float(np.sum(ratio))
        total_sq += float(np.sum(ratio * ratio))
        count += m
    mean = total / count
    var = max(total_sq / count - mean * mean, 0.0)
    stderr = math.sqrt(var / count)
    return EvalResult(mean, 3.0 * stderr)
