"""A fixed pure-Python reference kernel for scaling process timings.

It imports nothing but ``time``, so a fresh process can run it before any
heavy import and again at the end of the work being timed.
"""

import time

NOMINAL = 4.5e-3  # its median time on the machine the README figures come from


def seconds() -> float:
    """Time one run of the kernel."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(30_000):
        s += (i * 0.5) % 7.0
    return time.perf_counter() - t0


def scaled(elapsed: float, start: float, end: float) -> float:
    """`elapsed` scaled by nominal / measured kernel time."""
    return elapsed * NOMINAL / (0.5 * (start + end))
