"""Rational reconstruction, for the tests only."""

import math
from fractions import Fraction


def rationalize(x: float, max_den: int = 10_000, tol: float = 1e-8) -> Fraction:
    """Best rational p/q with q <= max_den; raises if it misses x by more than tol.

    Continued-fraction reconstruction; use it to certify that a numerically
    computed coefficient is the exact small rational it is supposed to be.
    """
    if max_den < 1:
        raise ValueError("max_den must be >= 1")
    if not math.isfinite(x):
        raise ValueError(f"cannot rationalize {x!r}")
    cand = Fraction(x).limit_denominator(max_den)
    if abs(x - float(cand)) > tol:
        raise ValueError(f"{x!r} is not within {tol} of a rational with denominator <= {max_den}")
    return cand
