"""One benchmark process: set up a workload, run it for a fixed time, report.

Started by run.py, never by hand.  It imports orbiheight from ``src/`` of
the checkout it runs in, calls the program through its public API (and its
command line, as fresh processes), and prints one JSON document on its last
stdout line: the time it became ready, the timed blocks, every operation's
output and, with --trace 1, the per-layer figures.  It checks nothing: the
outputs are checked by run.py against references it computes without
orbiheight.

Timing.  The CPU speed of a small shared machine drifts by tens of percent
over seconds.  Every timed block is therefore bracketed by fixed reference
kernels that call nothing of orbiheight, and its time is scaled by their
nominal time over their measured time (see Clock).
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pulse  # noqa: E402

START_PULSE = pulse.seconds()  # before any heavy import: scales the set-up time

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import inputs as I  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
CLI_RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_run.py")

_SMALL = np.arange(12, dtype=float)
_LARGE = np.linspace(0.1, 3.0, 50_000)
_HUGE = np.ones(2_000_000)  # 16 MB, well beyond the caches
_BUF = np.empty_like(_LARGE), np.empty_like(_LARGE), np.empty_like(_HUGE)


def _ref_scalar() -> None:
    """Python arithmetic on 12-element arrays, like the closed-form kernel."""
    s = 0.0
    for i in range(300):
        x = 0.3 + i * 1e-3
        s += float(np.sum((x + _SMALL) * np.log(x + _SMALL))) + math.exp(math.log(x + 12.0))


def _ref_vector() -> None:
    """log/exp over an array that stays in cache; allocates nothing."""
    a, b, _ = _BUF
    for i in range(4):
        np.add(_LARGE, i, out=a)
        np.log(a, out=a)
        np.negative(_LARGE, out=b)
        np.exp(b, out=b)
        np.dot(a, b)


def _ref_memory() -> None:
    """One streaming pass over 32 MB of arrays."""
    np.multiply(_HUGE, 1.0000001, out=_BUF[2])


# Reference kernels: function and nominal time, the kernel's median on the
# machine the README figures come from.
KERNELS = {
    "scalar": (_ref_scalar, 3.0e-3),
    "vector": (_ref_vector, 1.2e-3),
    "memory": (_ref_memory, 4.0e-3),
    "pulse": (pulse.seconds, pulse.NOMINAL),
}
# The kernels that bracket each family of blocks, chosen by which tracked
# the family's time best across fresh processes (see README.md).
FAMILY_KERNELS = {
    "heights": ("scalar", "vector"),
    "exact": ("scalar", "vector"),
    "terms": ("pulse",),
    "wall": ("pulse", "memory"),
    "quad": ("pulse",),
    "mc": ("pulse",),
}


BRACKET_SHARE = 0.05  # a bracket runs its kernels for at least this share of its block


def _kernel_runs(names: tuple[str, ...], at_least: float = 0.0) -> tuple[float, int]:
    """(seconds, runs) of the kernels `names`, run at least once and for at
    least `at_least` seconds: long brackets average out the kernels' own
    run-to-run jitter."""
    total, runs = 0.0, 0
    while runs == 0 or total < at_least:
        for name in names:
            fn = KERNELS[name][0]
            t0 = time.perf_counter()
            fn()
            total += time.perf_counter() - t0
        runs += 1
    return total, runs


class Clock:
    """Timed blocks, each bracketed by runs of its family's reference kernels.

    A block is recorded as [work, seconds, scale], where scale is the
    kernels' nominal time over their mean measured time in the brackets
    before and after the block, so seconds * scale is the block's time at
    the nominal machine speed.  A bracket that ends right where the next
    block of the same family starts serves both.
    """

    def __init__(self):
        self.blocks: dict[str, list[list[float]]] = defaultdict(list)
        self._last = (None, (0.0, 0), -1.0)  # (family, bracket, end stamp)
        self._length: dict[str, float] = {}  # seconds of each family's last block
        for names in set(FAMILY_KERNELS.values()):  # first runs fault in memory
            _kernel_runs(names), _kernel_runs(names)

    def block(self, family: str, work: float, fn):
        names = FAMILY_KERNELS[family]
        last_family, last_bracket, end = self._last
        same = last_family == family and time.perf_counter() - end < 2e-3
        before = last_bracket if same else _kernel_runs(names, BRACKET_SHARE * self._length.get(family, 0.0))
        t0 = time.perf_counter()
        out = fn()
        t = time.perf_counter() - t0
        after = _kernel_runs(names, BRACKET_SHARE * t)
        self._last = (family, after, time.perf_counter())
        self._length[family] = t
        nominal = sum(KERNELS[n][1] for n in names)
        per_run = (before[0] + after[0]) / (before[1] + after[1])
        self.blocks[family].append([work, t, nominal / per_run])
        return out


class Tracer:
    """Spans around the benchmark's calls into each layer, kept in memory.

    With tracing off, ``wrap`` hands back the function itself, so untraced
    runs pay nothing.
    """

    def __init__(self, on: bool):
        self.on = on
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.on:
            yield
            return
        sid = len(self.spans)
        rec = {"id": sid, "parent": self._stack[-1] if self._stack else None, "name": name, **attrs}
        self.spans.append(rec)
        self._stack.append(sid)
        rec["t0"] = time.perf_counter()
        try:
            yield
        finally:
            rec["t1"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, attr=None):
        if not self.on:
            return fn

        def traced(*args):
            with self.span(name, **(attr(*args) if attr else {})):
                return fn(*args)

        return traced

    def durations(self, name: str) -> list[float]:
        return [s["t1"] - s["t0"] for s in self.spans if s["name"] == name]


def _interleave(main: list, extra: list) -> list:
    """`main` with the items of `extra` spread evenly between its items."""
    out, j = [], 0
    for i, op in enumerate(main):
        out.append(op)
        while j < len(extra) and (j + 1) * len(main) <= (i + 1) * len(extra):
            out.append(extra[j])
            j += 1
    return out + extra[j:]


def _guard(kind: str, fn):
    """Run one operation; an exception becomes an error record, not a crash."""

    def op(*args):
        try:
            return fn(*args)
        except Exception as exc:  # the benchmark counts it and carries on
            return ["error", kind, repr(args)[:200], f"{type(exc).__name__}: {exc}"[:300]]

    return op


class Program:
    """The operations of every workload, bound to the imported package."""

    def __init__(self, tracer: Tracer):
        from orbiheight import fermat, heights, lcombo, periods, shimura, specfun, tables

        self.specfun = specfun
        tr = tracer.wrap
        h_pos = tr("heights.h_can", heights.h_can_positive)
        h_fano = tr("heights.h_can", heights.h_can_fano)

        def height(w):
            r = (h_pos if math.fsum(w) - 2.0 > 0.0 else h_fano)(w)
            return ["height", *w, r.value, r.err]

        self.height = _guard("height", height)

        t1 = {tuple(math.inf if m == math.inf else int(m) for m in r.indices.m): r for r in tables.TABLE1}
        t2 = {tuple(int(m) for m in r.indices.m): r for r in tables.TABLE2}
        evaluate = tr("lcombo.evaluate", lcombo.LogCombo.evaluate)
        h_p_map = tr("shimura.h_p_map", shimura.h_p_map)

        def table1(idx):
            row = t1[tuple(math.inf if m is None else m for m in idx)]
            ev = evaluate(row.constant)
            return ["table1", list(idx), row.field_id, ev.value, ev.err]

        def table2(idx):
            ev = evaluate(t2[idx].constant)
            return ["table2", list(idx), ev.value, ev.err]

        def shim(case):
            hp = h_p_map(shimura.get_case(case))
            return ["shimura", case, {str(p): f"{v.numerator}/{v.denominator}" for p, v in hp.items()}]

        def bounds(m):
            h = fermat.fermat_h_can(fermat.FermatSpec(m))
            b = fermat.arakelov_upper_bound(m)
            return ["fermat", m, h.value, h.err, fermat.arakelov_gap(m), b.first.value, b.second]

        self.table1 = _guard("table1", table1)
        self.table2 = _guard("table2", table2)
        self.shimura = _guard("shimura", shim)
        self.fermat = _guard("fermat", tr("fermat.bounds", bounds))

        df_log_z = tr("periods.df_log_z", periods.df_log_z, lambda cfg: {"N": cfg.N})
        mc = tr("periods.mc_oracle_z", periods.mc_oracle_z, lambda *a: {"budget": a[3]})
        quad = tr("pairquad.pair_integral", periods.mc_oracle_z)
        faltings = tr("heights.faltings_log_cy", heights.faltings_log_cy)

        def period_row(w, pol, n):
            r = df_log_z(periods.PeriodConfig(N=n, w=heights.WeightVector(w), polarity=pol))
            return ["period", list(w), pol, n, r.value, r.err]

        def wall(k):
            r = faltings(tuple(x / 10 for x in k))
            return ["wall", list(k), r.value, r.err]

        def quad_op(w, pol):
            r = quad(2, w, "quadrature", None, 0, pol)
            return ["quad", list(w), pol, float(r.value), float(r.err)]

        def mc_op(n, w, pol, budget, seed):
            r = mc(n, w, "monte-carlo", budget, seed, pol)
            return ["mc", n, list(w), pol, budget, seed, float(r.value), float(r.err)]

        self.period_row = _guard("period", period_row)
        self.wall = _guard("wall", wall)
        self.quad = _guard("quad", quad_op)
        self.mc = _guard("mc", mc_op)

    def exact_pass(self) -> list:
        out = [self.table1(idx) for idx, _ in I.TABLE1_ROWS]
        out += [self.table2(idx) for idx in I.TABLE2_ROWS]
        out += [self.shimura(c) for c in I.SHIMURA_CASES]
        out += [self.fermat(m) for m in I.FERMAT_DEGREES]
        return out

    def zeta_cache(self) -> tuple[int, int]:
        hits = misses = 0
        for fn in (self.specfun.hurwitz_zeta, self.specfun.hurwitz_zeta_ds):
            info = fn.cache_info() if hasattr(fn, "cache_info") else None
            if info is not None:
                hits, misses = hits + info.hits, misses + info.misses
        return hits, misses


class Run:
    """What one worker run measures and returns."""

    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.tracer = Tracer(trace)
        self.clock = Clock()
        self.once: list = []  # outputs of operations run once
        self.rounds: list[list] = []  # outputs of repeated rounds (first kept whole)
        self.mismatch: list[int] = []
        self.cli: list[list] = []
        self.cache = [0, 0, 0]  # heights in traced blocks, zeta hits, zeta misses
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.cli_argv = I.cli_args(seed)
        self.prog: Program | None = None

    # -- repeated rounds: keep the first, compare the rest to it -------------

    def add_round(self, outs: list):
        if not self.rounds:
            self.rounds.append(outs)
            return
        first = self.rounds[0]
        self.rounds.append([])
        self.mismatch += [i for i, (a, b) in enumerate(zip(first, outs)) if a != b]

    # -- families --------------------------------------------------------------

    def heights_block(self, ws: list) -> list:
        p = self.prog
        if self.trace:
            h0, m0 = p.zeta_cache()
        out = self.clock.block("heights", len(ws), lambda: [p.height(w) for w in ws])
        if self.trace:
            h1, m1 = p.zeta_cache()
            self.cache[0] += len(ws)
            self.cache[1] += h1 - h0
            self.cache[2] += m1 - m0
        return out

    def exact_block(self) -> list:
        return self.clock.block("exact", I.EXACT_ROWS, self.prog.exact_pass)

    def warm_exact_block(self) -> list:
        """An untimed pass (the main loop may have flushed the cache), then
        a timed block of passes."""
        p = self.prog
        out = p.exact_pass()
        passes = I.COMPANION_EXACT_PASSES
        return out + self.clock.block("exact", passes * I.EXACT_ROWS, lambda: [r for _ in range(passes) for r in p.exact_pass()])

    def run_cli(self, sub: str) -> list:
        argv = self.cli_argv[sub]
        cmd = [sys.executable] + (["-X", "importtime"] if self.trace else []) + [CLI_RUN, *argv, "--format", "json"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True, timeout=120)
        t = time.perf_counter() - t0
        lines = proc.stderr.strip().splitlines()
        start, end = (float(x) for x in lines.pop().split()[1:3])
        self.cli.append([sub, t, start, end, _import_seconds(proc.stderr) if self.trace else None])
        err = lines[-1] if proc.returncode and lines else ""
        return ["cli", sub, argv, proc.returncode, proc.stdout, err]

    def companions(self, families: set[str]) -> list:
        """Fixed small doses of the families a workload's main loop lacks.

        Returns operations (callables giving output records), the families
        taken in turn, so that each family's doses spread over the run: the
        machine's speed drifts over seconds, and samples spread in time
        average that drift out better than samples taken together.
        """
        p, c = self.prog, self.clock

        def one(family, work, fn, *args):
            return lambda: [c.block(family, work, lambda: fn(*args))]

        ws = I.companion_heights(self.seed)
        doses = {
            "heights": [lambda b=ws[i : i + I.COMPANION_BLOCK]: self.heights_block(b) for i in range(0, len(ws), I.COMPANION_BLOCK)],
            "exact": [self.warm_exact_block] * I.COMPANION_EXACT_DOSES,
            "terms": [one("terms", n, p.period_row, w, pol, n) for w, pol, n in I.COMPANION_PERIODS],
            "wall": [one("wall", 1, p.wall, k) for k in I.COMPANION_WALL],
            "quad": [one("quad", 1, p.quad, w, pol) for w, pol in I.COMPANION_QUAD],
            "mc": [one("mc", spec[3], p.mc, *spec) for spec in I.COMPANION_MC],
            "cli": [lambda sub=sub: [self.run_cli(sub)] for sub in I.CLI_COMPANIONS],
        }
        lists = [doses[f] for f in doses if f in families]
        return [op for group in itertools.zip_longest(*lists) for op in group if op is not None]

    # -- workloads ---------------------------------------------------------------

    def setup(self):
        """Everything before the first timed operation."""
        if self.workload == "cli":
            # a CLI process's own start-up: import the front end, build its parser
            import orbiheight.cli as cli

            cli.build_parser()
            return
        if self.trace:
            self.first_dedekind()
        self.prog = Program(self.tracer)
        if self.workload == "lattice":
            self.grid = I.grid_points()
            self.heights_untimed(self.grid)
        self.prog.exact_pass()  # warm-up, untimed
        if self.workload == "sweep":
            self.stream = I.sweep_rounds(self.seed)
        elif self.workload == "periods":
            self.ns = I.period_ns(self.seed)

    def heights_untimed(self, ws):
        for w in ws:
            self.prog.height(w)

    def first_dedekind(self):
        """Traced runs time the first Dedekind log-derivative of each field."""
        from orbiheight import fields

        for fid in sorted(fields.builtin_fields()):
            fs = fields.get_field(fid)
            with self.tracer.span("fields.dedekind_log_deriv", field=fid):
                fields.dedekind_log_deriv(fs)

    def main(self, seconds: float):
        w = self.workload
        if w == "sweep":
            comps = self.companions({"exact", "terms", "wall", "quad", "mc", "cli"})
            self.timed_loop(seconds, lambda: self.once.extend(self.heights_block(next(self.stream))), comps)
        elif w == "lattice":
            comps = self.companions({"terms", "wall", "quad", "mc", "cli"})
            self.timed_loop(seconds, lambda: self.add_round(self.heights_block(self.grid) + self.exact_block()), comps)
        else:
            if w == "periods":
                main = self.periods_ops()
                comps = self.companions({"heights", "exact", "cli"})
            else:
                # the in-process companions need the package; this is the
                # benchmark's preparation, not a CLI process's start-up
                self.prog = Program(self.tracer)
                if self.trace:
                    self.first_dedekind()
                self.prog.exact_pass()
                main = [lambda sub=sub: [self.run_cli(sub)] for sub in I.CLI_SUBCOMMANDS]
                comps = self.companions({"heights", "exact", "terms", "wall", "quad", "mc"})
            ops = _interleave(main, comps)
            t_end = time.perf_counter() + seconds
            while time.perf_counter() < t_end:
                with self.tracer.span(f"{w}.round"):
                    self.add_round([rec for op in ops for rec in op()])

    def timed_loop(self, seconds: float, step, comps: list):
        """Repeat `step` for `seconds` of its own time, running the companion
        operations in COMPANION_BUNCHES bunches at even intervals of that
        time (and any left at the end).  Bunching leaves most steps
        undisturbed by the caches a companion has flushed."""
        n = I.COMPANION_BUNCHES
        bunches = [comps[j * len(comps) // n : (j + 1) * len(comps) // n] for j in range(n)]
        done, j = 0.0, 0
        while done < seconds:
            with self.tracer.span(f"{self.workload}.round"):
                t0 = time.perf_counter()
                step()
                done += time.perf_counter() - t0
            while j < n and done >= (j + 0.5) * seconds / n:
                self.once += [rec for op in bunches[j] for rec in op()]
                j += 1
        self.once += [rec for bunch in bunches[j:] for op in bunch for rec in op()]

    def periods_ops(self) -> list:
        p, c = self.prog, self.clock

        def one(family, work, fn, *args):
            return lambda: [c.block(family, work, lambda: fn(*args))]

        ops = [lambda w=w, pol=pol: c.block("terms", sum(self.ns), lambda: [p.period_row(w, pol, n) for n in self.ns]) for w, pol in I.PERIOD_WEIGHTS]
        ops += [one("wall", 1, p.wall, k) for k in I.KLT_POINTS]
        ops += [one("quad", 1, p.quad, w, pol) for w, pol in I.QUAD_POINTS]
        ops += [one("mc", spec[3], p.mc, *spec) for spec in I.MC_RUNS]
        return ops

    # -- traced extras -----------------------------------------------------------

    def cli_probe(self):
        """Time the subcommands the run has not run, for the per-layer
        figures; like the specfun probe, these are not counted operations."""
        for sub in I.CLI_SUBCOMMANDS:
            if not any(c[0] == sub for c in self.cli):
                self.run_cli(sub)

    def specfun_probe(self):
        """Per-call times of the kernel on fresh (uncached) arguments."""
        sf = self.prog.specfun
        prim = self.tracer.wrap("specfun.loggamma_primitive", sf.loggamma_primitive)
        ratio = self.tracer.wrap("specfun.loggamma_ratio_integral", sf.loggamma_ratio_integral)
        xs, pairs = I.specfun_probe_args(self.seed)
        for x in xs:
            prim(x)
        for a, b in pairs:
            ratio(a, b)

    def layers(self) -> dict:
        tr = self.tracer

        def mean(name, scale):
            d = tr.durations(name)
            return scale * statistics.fmean(d) if d else 0.0

        def total(name, key):
            spans = [s for s in tr.spans if s["name"] == name]
            return sum(s["t1"] - s["t0"] for s in spans), sum(s[key] for s in spans)

        df_t, terms = total("periods.df_log_z", "N")
        mc_t, samples = total("periods.mc_oracle_z", "budget")
        n_h, hits, misses = self.cache
        out = {
            "specfun.primitive_us": (mean("specfun.loggamma_primitive", 1e6), "us"),
            "specfun.ratio_integral_us": (mean("specfun.loggamma_ratio_integral", 1e6), "us"),
            "specfun.zeta_evals": (misses / n_h if n_h else 0.0, "1/height"),
            "specfun.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
            "heights.h_can_us": (mean("heights.h_can", 1e6), "us"),
            "heights.faltings_ms": (mean("heights.faltings_log_cy", 1e3), "ms"),
            "fields.dedekind_ms": (mean("fields.dedekind_log_deriv", 1e3), "ms"),
            "lcombo.evaluate_us": (mean("lcombo.evaluate", 1e6), "us"),
            "shimura.h_p_map_us": (mean("shimura.h_p_map", 1e6), "us"),
            "fermat.bounds_us": (mean("fermat.bounds", 1e6), "us"),
            "periods.df_log_z_ns_per_term": (1e9 * df_t / terms if terms else 0.0, "ns"),
            "periods.terms": (terms, "count"),
            "periods.mc_ns_per_sample": (1e9 * mc_t / samples if samples else 0.0, "ns"),
            "periods.mc_samples": (samples, "count"),
            "pairquad.pair_integral_s": (statistics.median(tr.durations("pairquad.pair_integral") or [0.0]), "s"),
        }
        imports = [c[4] for c in self.cli if c[4] is not None]
        out["cli.import_s"] = (statistics.median(imports) if imports else 0.0, "s")
        for sub in I.CLI_SUBCOMMANDS:
            ts = [c[1] for c in self.cli if c[0] == sub]
            out[f"cli.{sub}_s"] = (statistics.median(ts) if ts else 0.0, "s")
        return out


_IMPORT_LINE = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \| (\S.*)$")


def _import_seconds(stderr: str) -> float:
    """Cumulative import time of the orbiheight package, from -X importtime."""
    total = 0
    for line in stderr.splitlines():
        m = _IMPORT_LINE.match(line)
        if m and m.group(2).startswith("orbiheight"):
            total += int(m.group(1))
    return total * 1e-6


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=I.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help="set up, report the ready time, exit")
    ap.add_argument("--spans", default=None, help="file for the traced spans")
    args = ap.parse_args(argv)
    sys.path.insert(0, SRC)

    run = Run(args.workload, args.seed, bool(args.trace) and not args.probe)
    run.setup()
    ready = time.perf_counter()
    pulses = [START_PULSE, pulse.seconds()]
    if args.probe:
        print(json.dumps({"ready": ready, "pulses": pulses}))
        return 0
    run.main(args.seconds)
    doc = {
        "ready": ready,
        "pulses": pulses,
        "rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF).ru_maxrss,
        "blocks": run.clock.blocks,
        "cli": run.cli,
        "once": run.once,
        "rounds": len(run.rounds),
        "first_round": run.rounds[0] if run.rounds else [],
        "mismatch": run.mismatch,
    }
    if run.trace:
        run.specfun_probe()
        run.cli_probe()
        doc["layers"] = run.layers()
        if args.spans:
            with open(args.spans, "w") as fh:
                json.dump(run.tracer.spans, fh)
    print(json.dumps(doc, default=_jsonable))
    return 0


def _jsonable(x):
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    raise TypeError(f"cannot encode {type(x).__name__}")


if __name__ == "__main__":
    sys.exit(main())
