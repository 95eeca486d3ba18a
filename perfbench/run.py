"""Benchmark of orbiheight: closed-form heights, exact layers, the period
route and the command line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 5 --trace 0

Run it from the root of a checkout.  It starts fresh worker processes
(perfbench/worker.py) that import the package from ``src/``, checks every
operation's output against independent references (refs.py), and prints
one JSON object as its last stdout line: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with --trace 0, the
per-layer ones with --trace 1.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import inputs as I  # noqa: E402
import pulse  # noqa: E402

WORKER = os.path.join(HERE, "worker.py")
PROBES = 3  # extra fresh processes timed to their first operation, per run

# Families of like blocks take the median block rate; mixed ones (rows of
# different N, points of different cost) take total work over total time.
MEDIAN_RATE = {"heights", "exact"}
RATES = {
    "heights_per_s": "heights",
    "exact_rows_per_s": "exact",
    "period_terms_per_s": "terms",
    "wall_values_per_s": "wall",
    "mc_samples_per_s": "mc",
}


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args: argparse.Namespace, *extra: str, timeout: float = 170.0) -> dict:
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed), *extra]
    # a session of its own, so that a timeout also ends the worker's CLI children
    with subprocess.Popen(cmd, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def _timed_worker(args, *extra: str, timeout: float = 170.0) -> tuple[float, dict]:
    """(seconds from spawn to the worker's first timed operation, its report)"""
    t0 = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
    doc = _worker(args, *extra, timeout=timeout)
    return pulse.scaled(doc["ready"] - t0, *doc["pulses"]), doc


def _normalized(family: str, blocks: dict) -> list[tuple[float, float]]:
    """(work, seconds at the nominal machine speed) per block; see worker.Clock."""
    return [(work, t * scale) for work, t, scale in blocks[family]]


def _rate(family: str, blocks: dict) -> float:
    pairs = _normalized(family, blocks)
    if family in MEDIAN_RATE:
        return statistics.median(w / t for w, t in pairs)
    return sum(w for w, _ in pairs) / sum(t for _, t in pairs)


def end_to_end(doc: dict, setups: list[float]) -> dict:
    blocks = doc["blocks"]
    m = {"setup_s": (statistics.median(setups), "s"), "peak_rss_mb": (doc["rss_kb"] / 1024.0, "MB")}
    for name, family in RATES.items():
        m[name] = (_rate(family, blocks), "1/s")
    m["quad_s"] = (statistics.median(t for _, t in _normalized("quad", blocks)), "s")
    m["cli_p50_s"] = (statistics.median(pulse.scaled(*c[1:4]) for c in doc["cli"]), "s")
    return m


def check(doc: dict, args) -> tuple[int, int, list[str]]:
    """(attempted, failed, unexpected failures) over all operations."""
    import refs

    first, once = doc["first_round"], doc["once"]
    ck = refs.Checker(args.seed)
    ck.check(first + once, grid=args.workload == "lattice")
    n_first = len(first)
    failing_first = {i for i in ck.fails if i < n_first}
    failed = doc["rounds"] * len(failing_first) + sum(1 for i in doc["mismatch"] if i not in failing_first)
    failed += sum(1 for i in ck.fails if i >= n_first)
    attempted = doc["rounds"] * n_first + len(once)
    recs = first + once
    unexpected = [f"{recs[i][0]} #{i}: {why}" for i, why in sorted(ck.fails.items()) if not refs.known_fault(recs[i])]
    unexpected += [f"round output differs from round 1 at #{i}" for i in doc["mismatch"] if i not in failing_first]
    return attempted, failed, unexpected


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=I.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "orbiheight", "__init__.py")):
        print("error: run from the root of an orbiheight checkout (src/orbiheight is missing)", file=sys.stderr)
        return 2
    out_dir = ".bench_out"
    os.makedirs(out_dir, exist_ok=True)

    extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        extra += ["--spans", os.path.join(out_dir, f"spans-{args.workload}-{args.seed}.json")]
    # set-up samples: the main worker and probes before and after it, so
    # that they span the run's drift in machine speed
    n_before = 0 if args.trace else PROBES // 2
    n_after = 0 if args.trace else PROBES - n_before
    setups = [_timed_worker(args, "--probe", timeout=60.0)[0] for _ in range(n_before)]
    ready, doc = _timed_worker(args, *extra)
    setups += [ready] + [_timed_worker(args, "--probe", timeout=60.0)[0] for _ in range(n_after)]
    attempted, failed, unexpected = check(doc, args)
    for line in unexpected[:20]:
        print(f"unexpected failure: {line}", file=sys.stderr)

    if args.trace:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in doc["layers"].items()}
        # the same run's end-to-end figures, for the tracing overhead
        info = {k: round(v, 6) for k, (v, _) in end_to_end(doc, [0.0]).items() if k != "setup_s"}
        print(f"traced end-to-end: {json.dumps(info)}", file=sys.stderr)
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in end_to_end(doc, setups).items()}
    result = {"correct": not unexpected, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
