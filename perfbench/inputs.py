"""Seeded inputs of the benchmark workloads.

Imported by the orchestrator (run.py) and by the worker process; it imports
nothing of orbiheight, so the reference checks can be built from the same
inputs without touching the program.  The program only ever receives the
values made here.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("sweep", "lattice", "periods", "cli")

# One sweep round: 40 fresh weight vectors with a fixed make-up, so every
# round does the same kind of work.
SWEEP_MIX = (("canonical", 16), ("fano", 16), ("cusp", 4), ("near_wall", 4))
SWEEP_ROUND = sum(n for _, n in SWEEP_MIX)
MARGIN = 1e-3  # |V| and the distance to the stability wall, except near_wall
NEAR_WALL = (1e-4, 1e-2)  # log-uniform |V| range of the near-wall share

# Companion heights (for the workloads whose main loop has none): 120 in
# blocks of 20.
COMPANION_HEIGHTS = 120
COMPANION_BLOCK = 20
COMPANION_BUNCHES = 4  # sweep and lattice run their companions in this many bunches
COMPANION_EXACT_DOSES = 7
COMPANION_EXACT_PASSES = 3  # timed passes per dose


def stable(w, v) -> bool:
    """0 <= w_i <= 1 and, on the Fano side, w_i <= V/2 + 1 with a margin."""
    if not all(0.0 <= x <= 1.0 for x in w):
        return False
    return v >= 0.0 or all(x <= v / 2.0 + 1.0 - MARGIN for x in w)


def _weights(rng: random.Random, kind: str) -> tuple[float, float, float]:
    while True:
        if kind == "cusp":
            w = [1.0, rng.random(), rng.random()]
            rng.shuffle(w)
        elif kind == "near_wall":
            v = math.copysign(10.0 ** rng.uniform(*map(math.log10, NEAR_WALL)), rng.random() - 0.5)
            a, b = rng.random(), rng.random()
            w = [a, b, v + 2.0 - a - b]
        else:
            w = [rng.random(), rng.random(), rng.random()]
        w = tuple(w)
        v = math.fsum(w) - 2.0
        lo = NEAR_WALL[0] / 2.0 if kind == "near_wall" else MARGIN
        if abs(v) < lo or not stable(w, v):
            continue
        if kind == "near_wall" and abs(v) > NEAR_WALL[1] * 2.0:
            continue
        if (kind == "fano") != (v < 0.0) and kind in ("canonical", "fano"):
            continue
        return w


def sweep_rounds(seed: int):
    """Endless stream of sweep rounds; round r is the same for a given seed."""
    rng = random.Random(f"sweep-{seed}")
    while True:
        batch = [_weights(rng, kind) for kind, n in SWEEP_MIX for _ in range(n)]
        rng.shuffle(batch)
        yield batch


def companion_heights(seed: int) -> list[tuple[float, float, float]]:
    rounds = sweep_rounds(seed + 7919)
    ws = []
    while len(ws) < COMPANION_HEIGHTS:
        ws += next(rounds)
    return ws[:COMPANION_HEIGHTS]


def grid_points() -> list[tuple[float, float, float]]:
    """The 20^3 stability grid of the acceptance gate: linspace(0, 1, 20)^3,
    K-semistable and off the wall (|V| >= 1e-9)."""
    vals = [k / 19 for k in range(20)]
    pts = []
    for a in vals:
        for b in vals:
            for c in vals:
                w = (a, b, c)
                v = math.fsum(w) - 2.0
                if abs(v) < 1e-9:
                    continue
                if v < 0.0 and any(x > v / 2.0 + 1.0 + 1e-12 for x in w):
                    continue
                pts.append(w)
    return pts


TABLE1_ROWS = (
    ((2, 3, None), "Q"),
    ((6, 2, 6), "Q"),
    ((4, 4, 4), "Qsqrt2"),
    ((3, 3, 6), "Qsqrt3"),
    ((2, 4, 12), "Qsqrt3"),
    ((6, 6, 6), "Qsqrt3"),
    ((5, 5, 5), "Qsqrt5"),
    ((3, 4, 6), "Qsqrt6"),
    ((7, 7, 7), "Qcos7"),
    ((9, 9, 9), "Qcos9"),
)
TABLE2_ROWS = ((2, 2, 3), (2, 2, 4), (2, 3, 3), (2, 3, 4))
SHIMURA_CASES = ("modular", "disc6", "sqrt3", "sqrt6")
FERMAT_DEGREES = tuple(range(4, 61))
EXACT_ROWS = len(TABLE1_ROWS) + len(TABLE2_ROWS) + len(SHIMURA_CASES) + len(FERMAT_DEGREES)

# Period route.  The weight vectors are fixed; the seed moves N up to 10%
# above 10^2 .. 10^5, and N = 10^6 is fixed so that peak memory is too.
PERIOD_WEIGHTS = (
    ((0.75, 0.75, 0.75), "canonical"),
    ((0.6, 0.8, 0.9), "canonical"),
    ((0.5, 0.5, 0.5), "anticanonical"),
    ((0.4, 0.5, 0.6), "anticanonical"),
)
PERIOD_DECADES = (2, 3, 4, 5, 6)


def period_ns(seed: int) -> list[int]:
    rng = random.Random(f"periods-{seed}")
    return [10**k + (int(rng.random() * 10 ** (k - 1)) if k < 6 else 0) for k in PERIOD_DECADES]


# The 36 klt points of the 0.1-step lattice on V = 0, as tenths.
KLT_POINTS = tuple((a, b, 20 - a - b) for a in range(10) for b in range(10) if 0 <= 20 - a - b <= 9)

# N = 2 quadrature oracle; the two anticanonical points understate their
# error (a known fault, counted as failed on every run).
QUAD_POINTS = (
    ((5 / 6, 5 / 6, 5 / 6), "canonical"),
    ((0.4, 0.5, 0.6), "anticanonical"),
    ((0.5, 0.5, 0.5), "anticanonical"),
)
# Monte-Carlo oracle: (N, weights, polarity, budget, sampler seed), fixed.
MC_RUNS = tuple(
    (n, w, pol, 100_000, seed)
    for n in (2, 3)
    for w, pol in (((5 / 6, 5 / 6, 5 / 6), "canonical"), ((0.5, 0.5, 0.5), "anticanonical"))
    for seed in (7, 11)
)

# Small fixed doses of the period-route layers for the workloads that do not
# run them in their main loop.  The V = 0 points keep every weight below 0.8,
# so the known faltings_log_cy fault is counted on the periods workload only.
COMPANION_PERIODS = tuple(
    (w, pol, 100_000) for _ in range(6) for w, pol in (((0.75, 0.75, 0.75), "canonical"), ((0.5, 0.5, 0.5), "anticanonical"))
)
COMPANION_WALL = ((6, 7, 7), (7, 6, 7), (7, 7, 6)) * 2
COMPANION_QUAD = (QUAD_POINTS[0],) * 3
COMPANION_MC = tuple((2, (5 / 6, 5 / 6, 5 / 6), "canonical", 40_000, seed) for seed in range(1, 9))

CLI_SUBCOMMANDS = ("height", "table1", "table2", "shimura", "fermat", "periods", "specfun", "faltings", "verify")
# Subcommands run by the workloads other than cli (traced runs time the
# other four too, outside the counted operations).
CLI_COMPANIONS = ("height", "table2", "shimura", "specfun", "faltings")


def cli_args(seed: int) -> dict[str, list[str]]:
    """Arguments of each subcommand; the seed picks the height weights, the
    Shimura case and the specfun argument."""
    rng = random.Random(f"cli-{seed}")
    w = _weights(rng, "canonical")
    x = rng.uniform(0.05, 0.95)
    case = rng.choice(SHIMURA_CASES)
    return {
        "height": ["height", "--weights", ",".join(repr(t) for t in w), "--kind", "can"],
        "table1": ["table1"],
        "table2": ["table2"],
        "shimura": ["shimura", "--case", case],
        "fermat": ["fermat", "--m", "4", "--m-to", "60"],
        "periods": ["periods", "--weights", "0.75,0.75,0.75", "--N-list", "100,1000,10000"],
        "specfun": ["specfun", "loggamma_primitive", repr(x)],
        "faltings": ["faltings", "--weights", "0.6,0.7,0.7"],
        "verify": ["verify", "--suite", "fermat"],
    }


def specfun_probe_args(seed: int, n: int = 200) -> tuple[list[float], list[tuple[float, float]]]:
    """Fresh arguments for the traced per-call specfun timings."""
    rng = random.Random(f"specfun-{seed}")
    xs = [rng.uniform(0.01, 0.99) for _ in range(n)]
    pairs = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)) for _ in range(n // 2)]
    return xs, pairs
