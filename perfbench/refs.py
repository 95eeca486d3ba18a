"""Independent references and output checks.

Nothing here imports orbiheight.  The references are:

* closed-form heights: mpmath at 30 digits through zeta(-1, x) and
  zeta(-1, x, 1), on a seeded sample of each run's heights, and for every
  height a float64 Gauss-Legendre integral of ln Gamma (scipy's gammaln),
  which shares no code path with the program's Euler-Maclaurin kernel;
* table rows: the same mpmath closed forms plus mpmath Dirichlet L-values
  for the Dedekind terms (characters read from the package's field data);
* V = 0 values: the Dotsenko-Fateev product pi / (l(w1) l(w2) l(w3)),
  l(x) = Gamma(x) / Gamma(1 - x), in mpmath;
* Z_N (period rows with N < 200, the CLI's with N < 1200, and the N = 2, 3
  oracles): the Gamma-ratio product in mpmath.

Each value must lie within its own reported ``err`` of its reference.
Outputs without an ``err`` (the CLI's table and Fermat rows) are held to
the 1e-9 tolerance at which the tables are validated.
"""

from __future__ import annotations

import json
import math
import os
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from scipy.special import gammaln

import inputs as I

mp = mpmath.mp
mp.dps = 30
MPF = mpmath.mpf

MP_SAMPLE = 48  # heights per run checked against mpmath
SHARP = -0.5 * (1.0 + math.log(math.pi))
TOL_TABLE = 1e-9

SHIMURA_H = {
    "modular": {2: Fraction(1, 2), 3: Fraction(1, 4)},
    "disc6": {2: Fraction(11, 18), 3: Fraction(7, 12)},
    "sqrt3": {2: Fraction(5, 9), 3: Fraction(15, 48)},
    "sqrt6": {2: Fraction(43, 144), 3: Fraction(3, 32)},
}


# -- closed forms in mpmath ------------------------------------------------------


@lru_cache(maxsize=None)
def _primitive(x):
    return mpmath.zeta(-1, x) + mpmath.zeta(-1, x, 1)


def primitive_mp(x):
    """zeta(-1, x) + zeta'(-1, x), continued to x = 0 by its value at 1.

    Arguments a rounding error below 0 (wall points of the grid, where
    w_i - V/2 is 1 in floats but not in exact arithmetic) are taken as 0.
    """
    return _primitive(MPF(1) if x <= 0 else MPF(x))


def _gamma_mp(a, b):
    return primitive_mp(b) + primitive_mp(1 - b) - primitive_mp(a) - primitive_mp(1 - a)


def height_mp(w):
    """Normalized canonical height at the exact (binary) weights w."""
    w = [MPF(t) for t in w]
    v = sum(w) - 2
    if v > 0:
        g = _gamma_mp(0, v / 2) - sum(_gamma_mp(x - v / 2, x) for x in w)
        return (1 - mpmath.log(mpmath.pi * v / 2)) / 2 - g / v
    g = _gamma_mp(0, -v / 2) + sum(_gamma_mp(x, x - v / 2) for x in w)
    return (1 + mpmath.log(mpmath.pi / (-v / 2))) / 2 + g / v


def _ram_weights(idx):
    return [MPF(1) if m is None else 1 - MPF(1) / m for m in idx]


@lru_cache(maxsize=None)
def _fields() -> dict:
    path = os.path.join("src", "orbiheight", "data", "fields.json")
    with open(path) as fh:
        return {d["id"]: d for d in json.load(fh)}


@lru_cache(maxsize=None)
def dedekind_mp(fid: str):
    """(zeta_F'/zeta_F)(-1) / [F:Q] from the Dirichlet L-values of the field."""
    doc = _fields()[fid]
    total = mpmath.mpc(0)
    for ch in doc["characters"]:
        f = int(ch.get("modulus", doc["modulus"]))
        lv = ld = mpmath.mpc(0)
        for a, (k, n) in ch["values"].items():
            chi = mpmath.expjpi(2 * MPF(k) / n)
            x = MPF(1) if f == 1 else MPF(int(a)) / f
            lv += chi * mpmath.zeta(-1, x)
            ld += chi * mpmath.zeta(-1, x, 1)
        # L(s) = f^-s sum chi(a) zeta(s, a/f), differentiated at s = -1
        total += (f * (-mpmath.log(f) * lv + ld)) / (f * lv)
    return total.real / len(doc["characters"])


def table1_mp(idx, fid):
    w = _ram_weights(idx)
    v = sum(w) - 2
    return height_mp(w) + mpmath.log(mpmath.pi * v / 2) / 2 + MPF(1) / 2 + dedekind_mp(fid)


def table2_mp(idx):
    return height_mp(_ram_weights(idx)) - (1 + mpmath.log(mpmath.pi)) / 2


def fermat_mp(m: int):
    t = 1.0 - 1.0 / m  # the program's binary weight
    return height_mp((t, t, t)) + mpmath.log(m)


# -- Gamma products -----------------------------------------------------------------


def _log_l(x):
    """log l(x) = log Gamma(x) - log Gamma(1 - x) for 0 < x < 1."""
    return mpmath.loggamma(x) - mpmath.loggamma(1 - x)


@lru_cache(maxsize=None)
def log_z_mp(n: int, w: tuple, polarity: str):
    """log Z_N from the Gamma-ratio product, at the exact weights w.

    The Fano product uses -l(-y) = 1 / (y^2 l(y)).
    """
    w = [MPF(t) for t in w]
    v = sum(w) - 2
    h = abs(v) / (2 * (n - 1))
    fano = polarity == "anticanonical"

    def num(y):
        return -2 * mpmath.log(y) - _log_l(y) if fano else _log_l(y)

    total = mpmath.log(mpmath.factorial(n)) + n * (mpmath.log(mpmath.pi) - num(h))
    for j in range(n):
        total += num((j + 1) * h) - sum(_log_l(x + j * h if fano else x - j * h) for x in w)
    return total


def wall_mp(k):
    """-1/2 log of pi / (l(w1) l(w2) l(w3)) at the tenths k."""
    return -(mpmath.log(mpmath.pi) - sum(_log_l(MPF(x) / 10) for x in k)) / 2


# -- float64 Gauss-Legendre reference for every height ------------------------------

_GX, _GW = np.polynomial.legendre.leggauss(20)


def _u_log_u(u):
    return np.where(u > 0.0, u - u * np.log(np.where(u > 0.0, u, 1.0)), 0.0)


def _gamma_gl(a, b):
    """Integral of ln(Gamma(x) / Gamma(1 - x)) over [a, b], arrays in [0, 1].

    ln Gamma(x) = ln Gamma(1 + x) - ln x and ln Gamma(1 - x) = ln Gamma(2 - x)
    - ln(1 - x): the log singularities integrate in closed form, the smooth
    rest by 20-point Gauss-Legendre.
    """
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    x = mid[:, None] + half[:, None] * _GX
    smooth = half * ((gammaln(1.0 + x) - gammaln(2.0 - x)) @ _GW)
    return smooth + _u_log_u(b) - _u_log_u(a) + _u_log_u(1.0 - b) - _u_log_u(1.0 - a)


def heights_gl(ws):
    """(values, own rounding bound) of the closed forms at the rows of ws."""
    w = np.array(ws, dtype=float).reshape(-1, 3)
    v = np.array([math.fsum(r) for r in w]) - 2.0
    half = np.abs(v) / 2.0
    pos = v > 0.0
    zero = np.zeros_like(v)
    g0 = _gamma_gl(zero, half)
    gi = [np.where(pos, _gamma_gl(w[:, k] - v / 2.0, w[:, k]), _gamma_gl(w[:, k], w[:, k] - v / 2.0)) for k in range(3)]
    scale = np.abs(g0) + sum(np.abs(g) for g in gi)
    val = np.where(
        pos,
        0.5 * (1.0 - np.log(np.pi * half)) - (g0 - sum(gi)) / np.where(pos, v, 1.0),
        0.5 * (1.0 + np.log(np.pi / half)) + (g0 + sum(gi)) / np.where(pos, 1.0, v),
    )
    own = 64.0 * np.finfo(float).eps * (scale / np.abs(v) + np.abs(val) + 1.0)
    return val, own


# -- the checks ----------------------------------------------------------------------


class Checker:
    """Marks each operation output as passing or failing.

    ``fails`` maps an operation's position to the reason it failed.  Failures
    that ``known_fault`` names are the program faults the benchmark keeps;
    any other failure makes the run incorrect.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.fails: dict[int, str] = {}

    def fail(self, i: int, why: str):
        self.fails.setdefault(i, why)

    def check(self, recs: list, grid: bool = False):
        heights = [(i, r) for i, r in enumerate(recs) if r[0] == "height"]
        self.check_heights(heights, grid)
        by_vector: dict = {}
        for i, r in enumerate(recs):
            kind = r[0]
            if kind == "error":
                self.fail(i, f"raised {r[3]}")
            elif kind == "period":
                by_vector.setdefault((tuple(r[1]), r[2]), []).append((i, r))
            elif kind != "height":
                getattr(self, f"check_{kind}")(i, r)
        for rows in by_vector.values():
            self.check_period_rows(rows)

    def within(self, i, value, ref, err, what):
        d = abs(value - float(ref))
        if not d <= err:
            self.fail(i, f"{what}: |value - ref| = {d:.3g} > err {err:.3g}")

    # heights ------------------------------------------------------------------

    def check_heights(self, heights, grid):
        if not heights:
            return
        ws = [tuple(r[1:4]) for _, r in heights]
        ref, own = heights_gl(ws)
        for (i, r), g, o in zip(heights, ref, own):
            w, value, err = r[1:4], r[4], r[5]
            self.within(i, value, g, err + o, "height vs Gauss-Legendre")
            signed = value if math.fsum(w) > 2.0 else -value
            if signed > SHARP + 1e-9 or (signed > SHARP - 1e-9 and max(w) > 1e-12):
                self.fail(i, f"sharp bound: signed height {signed!r} at {w}")
        rng = random.Random(f"mpmath-{self.seed}")
        for i, r in rng.sample(heights, min(MP_SAMPLE, len(heights))):
            self.within(i, r[4], height_mp(r[1:4]), r[5], "height vs mpmath")
        if grid:
            self.check_grid(heights)

    def check_grid(self, heights):
        """Permutation symmetry and midpoint concavity on the 20^3 grid."""
        at = {tuple(round(19 * x) for x in r[1:4]): (i, r) for i, r in heights}
        for key, (i, r) in at.items():
            for perm in ((key[1], key[0], key[2]), (key[0], key[2], key[1]), (key[2], key[1], key[0])):
                j, s = at[perm]
                if abs(r[4] - s[4]) > r[5] + s[5]:
                    self.fail(i, f"permutation symmetry {key} vs {perm}")
            for k in range(3):
                hi = list(key)
                hi[k] += 2
                mid = list(key)
                mid[k] += 1
                if tuple(hi) not in at or tuple(mid) not in at:
                    continue
                ends = [r, at[tuple(hi)][1]]
                j, m = at[tuple(mid)]
                vs = [math.fsum(e[1:4]) - 2.0 for e in ends + [m]]
                if not (all(v > 1e-3 for v in vs) or all(v < -1e-3 for v in vs)):
                    continue
                sg = 1.0 if vs[0] > 0 else -1.0
                if sg * m[4] < 0.5 * sg * (ends[0][4] + ends[1][4]) - 1e-9:
                    self.fail(j, f"midpoint concavity at {tuple(mid)}")

    # exact layers ------------------------------------------------------------------

    def check_table1(self, i, r):
        idx = tuple(r[1])
        if (tuple(None if m == math.inf else m for m in idx), r[2]) not in I.TABLE1_ROWS:
            self.fail(i, f"unexpected TABLE1 row {idx} {r[2]}")
            return
        self.within(i, r[3], table1_mp(idx, r[2]), r[4], f"TABLE1 {idx}")

    def check_table2(self, i, r):
        self.within(i, r[2], table2_mp(tuple(r[1])), r[3], f"TABLE2 {tuple(r[1])}")

    def check_shimura(self, i, r):
        got = {int(p): Fraction(v) for p, v in r[2].items()}
        if got != SHIMURA_H[r[1]] or min(got.values()) < 0:
            self.fail(i, f"h(p) of {r[1]} is {got}")

    def check_fermat(self, i, r):
        m, h, err, gap, first, second = r[1:]
        self.within(i, h, fermat_mp(m), err, f"Fermat h_can m={m}")
        if not (h + gap <= first + 1e-9 and first <= second + 1e-9):
            self.fail(i, f"bound chain fails at m={m}")

    # period route ------------------------------------------------------------------

    def check_period_rows(self, rows):
        w, pol = tuple(rows[0][1][1]), rows[0][1][2]
        f = height_mp(w)
        sign = -1.0 if pol == "canonical" else 1.0
        pts = []
        for i, r in rows:
            n, lz, err = r[3], r[4], r[5]
            if n < 200:
                self.within(i, lz, log_z_mp(n, w, pol), err, f"log Z_{n} {w} {pol}")
            pts.append((math.log(n), math.log(abs(sign * lz / (2 * n) - float(f)))))
        if len({x for x, _ in pts}) >= 3:
            mx = sum(p[0] for p in pts) / len(pts)
            my = sum(p[1] for p in pts) / len(pts)
            slope = sum((x - mx) * (y - my) for x, y in pts) / sum((x - mx) ** 2 for x, _ in pts)
            if not 0.8 <= -slope <= 1.2:
                for i, _ in rows:
                    self.fail(i, f"gap exponent {-slope:.3f} outside [0.8, 1.2] for {w} {pol}")

    def check_wall(self, i, r):
        self.within(i, r[2], wall_mp(r[1]), r[3], f"faltings_log_cy {tuple(r[1])}")

    def check_quad(self, i, r):
        z = mpmath.exp(log_z_mp(2, tuple(r[1]), r[2]))
        self.within(i, r[3], z, r[4], f"N=2 quadrature {tuple(r[1])} {r[2]}")

    def check_mc(self, i, r):
        n, w, pol, _, _, value, err = r[1:]
        self.within(i, value, mpmath.exp(log_z_mp(n, tuple(w), pol)), err, f"Monte-Carlo N={n} {tuple(w)} {pol}")

    # command line --------------------------------------------------------------------

    def check_cli(self, i, r):
        sub, argv, rc, out, err = r[1:]
        if rc != 0:
            self.fail(i, f"cli {sub} exited {rc}: {err}")
            return
        try:
            doc = json.loads(out)
        except ValueError:
            self.fail(i, f"cli {sub}: output is not JSON")
            return
        before = len(self.fails)
        getattr(self, f"cli_{sub}")(i, doc, argv)
        if len(self.fails) > before:
            self.fails[i] = f"cli {sub}: " + self.fails[i]

    def cli_height(self, i, doc, argv):
        w = tuple(float(t) for t in argv[argv.index("--weights") + 1].split(","))
        self.within(i, doc["value"], height_mp(w), doc["err"], "height")

    def _cli_table(self, i, doc, ref):
        for row in doc["rows"]:
            idx = tuple(None if m == "inf" else int(m) for m in row["indices"])
            self.within(i, row["value"], ref(idx, row.get("field")), TOL_TABLE, f"row {idx}")

    def cli_table1(self, i, doc, argv):
        if len(doc["rows"]) != len(I.TABLE1_ROWS):
            self.fail(i, "TABLE1 row count")
        self._cli_table(i, doc, table1_mp)

    def cli_table2(self, i, doc, argv):
        if len(doc["rows"]) != len(I.TABLE2_ROWS):
            self.fail(i, "TABLE2 row count")
        self._cli_table(i, doc, lambda idx, _f: table2_mp(idx))

    def cli_shimura(self, i, doc, argv):
        self.check_shimura(i, ["shimura", doc["case"], doc["h"]])

    def cli_fermat(self, i, doc, argv):
        if [r["m"] for r in doc["rows"]] != list(I.FERMAT_DEGREES):
            self.fail(i, "Fermat degrees")
        for r in doc["rows"]:
            self.check_fermat(i, ["fermat", r["m"], r["h_can"], TOL_TABLE, r["gap"], r["bound1"], r["bound2"]])

    def cli_periods(self, i, doc, argv):
        w = tuple(doc["weights"])
        f = float(height_mp(w))
        gaps = []
        for r in doc["rows"]:
            n = r["N"]
            if n < 1200:
                self.within(i, r["estimate"], -log_z_mp(n, w, "canonical") / (2 * n), TOL_TABLE, f"estimate N={n}")
            self.within(i, r["gap"], r["estimate"] - f, TOL_TABLE, f"gap N={n}")
            gaps.append(abs(r["gap"]))
        if not all(a > b for a, b in zip(gaps, gaps[1:])):
            self.fail(i, f"gaps do not shrink: {gaps}")

    def cli_specfun(self, i, doc, argv):
        self.within(i, doc["value"], primitive_mp(float(argv[2])), doc["err"], "loggamma_primitive")

    def cli_faltings(self, i, doc, argv):
        k = tuple(round(10 * t) for t in doc["weights"])
        self.within(i, doc["value"], wall_mp(k), doc["err"], "faltings")

    def cli_verify(self, i, doc, argv):
        if doc["failed"] != 0 or doc["passed"] < 1:
            self.fail(i, f"verify: {doc['failed']} checks failed")


def known_fault(rec) -> bool:
    """The two program faults the benchmark keeps and counts as failed.

    * faltings_log_cy understates its error when a weight is 0.8 or more;
    * the anticanonical N = 2 quadrature understates its error.
    """
    if rec[0] == "wall":
        return max(rec[1]) >= 8
    return rec[0] == "quad" and rec[2] == "anticanonical"
