"""The period route: a 2N-dimensional integral whose normalized logarithm
converges to the canonical height.

The integral has an exact Gamma-ratio product evaluation, so the convergence
can be watched precisely; a direct numerical integration of the N = 2 case
(deterministic tensor quadrature and seeded Monte Carlo) closes the loop
without ever touching the Gamma product.

Run:  python demos/03_periods_convergence.py
"""

import math

from orbiheight import PeriodConfig, WeightVector, convergence_report, df_log_z, h_can_fano, h_can_positive, mc_oracle_z
from orbiheight.periods import report_to_csv

print(__doc__)

print("--- canonical side, weights (3/4, 3/4, 3/4) ---")
w = WeightVector((0.75, 0.75, 0.75))
print(f"closed form: {h_can_positive(w).value:.9f}")
rows = convergence_report(w, [10, 100, 1000, 10000, 100000])
print(report_to_csv(rows))

print("--- Fano side, weights (1/2, 1/2, 1/2) ---")
w2 = WeightVector((0.5, 0.5, 0.5))
print(f"closed form: {h_can_fano(w2).value:.9f}  (= (1 + ln pi)/2 + ln(2)/2)")
rows = convergence_report(w2, [10, 100, 1000, 10000])
print(report_to_csv(rows))

print("--- direct integration at N = 2 (no Gamma products involved) ---")
for weights in ((5 / 6, 5 / 6, 5 / 6), (0.5, 0.5, 0.5)):
    z_exact = math.exp(df_log_z(PeriodConfig(N=2, w=weights)).value)
    quad = mc_oracle_z(2, weights, scheme="quadrature")
    mc = mc_oracle_z(2, weights, scheme="monte-carlo", budget=400_000, seed=1)
    print(f"{WeightVector(weights).polarity:>14s} {weights}:")
    print(f"    product formula  Z_2 = {z_exact:12.6f}")
    print(f"    tensor quadrature    = {quad.value:12.6f}  (ratio {quad.value / z_exact:.5f})")
    print(f"    monte carlo          = {mc.value:12.6f}  (ratio {mc.value / z_exact:.5f}, err {mc.err:.2g})")
