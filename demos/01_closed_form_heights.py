"""Closed-form canonical heights on the weighted projective line.

A boundary divisor with weights (w1, w2, w3) at {0, 1, infinity} makes the
log canonical bundle have degree V = w1 + w2 + w3 - 2.  Inside the stability
region the normalized height of that bundle (V > 0) or of its dual (V < 0)
has a closed form built from the Hurwitz zeta function; this script walks
through the values, the normalizations, and the sharp bounds.

Run:  python demos/01_closed_form_heights.py
"""

import math

import numpy as np

from orbiheight import (
    RamIndices,
    bound_linear_fano,
    bound_semiample,
    faltings_log_cy,
    h_can,
    h_can_fano,
    h_can_positive,
    h_pet,
    k_semistable,
    volume,
)

print(__doc__)

# ---------------------------------------------------------------------------
print("--- the bare projective line (no divisor: Fano side, V = -2) ---")
h0 = h_can_fano((0.0, 0.0, 0.0))
print(f"height of the anticanonical bundle: {h0.value:.12f}")
print(f"(1 + ln pi)/2                     : {(1 + math.log(math.pi)) / 2:.12f}")
print()

# ---------------------------------------------------------------------------
print("--- an orbifold with ramification indices (2, 3, 7), V = 1/42 > 0 ---")
w = RamIndices((2, 3, 7)).weights()
print(f"weights {tuple(round(x, 6) for x in w.w)}, degree V = {w.volume:.6f}")
print(f"canonical height  (volume-1 metric) : {h_can_positive(w).value:+.9f}")
print(f"Petersson-normalized height         : {h_pet(w).value:+.9f}")
print("the difference is ln(pi V / 2)/2    :", f"{0.5 * math.log(math.pi * w.volume / 2):+.9f}")
print()

# ---------------------------------------------------------------------------
print("--- scanning the diagonal w = (t, t, t): both polarities and the wall ---")
print(f"{'t':>8s} {'V':>8s} {'signed height':>15s}")
for t in (0.1, 0.3, 0.5, 0.6, 2 / 3, 0.7, 0.8, 0.9):
    v = 3 * t - 2
    if abs(v) < 1e-12:
        val = faltings_log_cy((t, t, t)).value
        tag = "  <- V = 0: normalization integral"
    else:
        val = math.copysign(1.0, v) * h_can((t, t, t)).value
        tag = ""
    print(f"{t:8.4f} {v:8.4f} {val:15.9f}{tag}")
print()
print("The signed height +-h extends real-analytically across V = 0; the wall")
print("value is the log-Calabi-Yau normalization integral, and it equals")
print("-(1/2) ln pi + (3/2) ln(Gamma(2/3)/Gamma(1/3)):")
target = -0.5 * math.log(math.pi) + 1.5 * (math.lgamma(2 / 3) - math.lgamma(1 / 3))
print(f"  Dotsenko-Fateev product: {faltings_log_cy((2/3, 2/3, 2/3)).value:.10f}   sharp-bound constant: {target:.10f}")
print()

# ---------------------------------------------------------------------------
print("--- sharp bounds over the whole stability region ---")
rng = np.random.default_rng(0)
upper = -0.5 * (1.0 + math.log(math.pi))
worst = -math.inf
for _ in range(20000):
    w = tuple(rng.uniform(0, 1, size=3))
    if not k_semistable(w) or abs(volume(w)) < 1e-6:
        continue
    signed = math.copysign(1.0, volume(w)) * h_can(w).value
    worst = max(worst, signed)
print(f"max of +-h over 20000 random stable weights: {worst:.9f}")
print(f"the bound -(1 + ln pi)/2                   : {upper:.9f}  (equality only at w = 0)")
print()
print("On the semi-ample side a linear upper bound touches at w = (2/3)^3:")
for t in (0.68, 0.75, 0.85):
    w = (t, t, t)
    print(f"  t = {t}: height {h_can_positive(w).value:+.6f}  <=  bound {bound_semiample(w):+.6f}")
print("and on the Fano side a linear lower bound leaves from w = 0:")
for t in (0.1, 0.25, 0.4):
    w = (t, t, t)
    print(f"  t = {t}: height {h_can_fano(w).value:+.6f}  >=  bound {bound_linear_fano(w):+.6f}")
