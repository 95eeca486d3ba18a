"""The special-function layer: Hurwitz zeta, its s-derivative, and the
log-Gamma-ratio integral that powers every closed-form height.

Run:  python demos/02_hurwitz_toolbox.py
"""

import math

from orbiheight import (
    bernoulli2,
    dedekind_log_deriv,
    get_field,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    loggamma_primitive,
    loggamma_ratio_integral,
)

print(__doc__)

print("--- zeta(-1, x) is a polynomial: -B2(x)/2 ---")
for x in (0.25, 1.0, 1.7):
    z = hurwitz_zeta(-1.0, x)
    print(f"  x = {x}: zeta(-1,x) = {z.value:+.15f}   -B2(x)/2 = {-bernoulli2(x).value/2:+.15f}")
print()

print("--- the s-derivative at -1 on (0, 1] and the multiplication theorem ---")
zp = hurwitz_zeta_ds(1.0)
print(f"zeta'(-1) = {zp.value:.15f}  (err <= {zp.err:.1e})")
k = 6
lhs = math.fsum(hurwitz_zeta_ds(i / k).value for i in range(1, k + 1))
rhs = (zp.value + math.log(k) * hurwitz_zeta(-1.0, 1.0).value) / k
print(f"sum_i zeta'(-1, i/{k}) = {lhs:.15f}")
print(f"(zeta'(-1) + ln {k} zeta(-1))/{k} = {rhs:.15f}   residual {lhs - rhs:.1e}")
print()

print("--- the primitive: P(x) = zeta(-1,x) + zeta'(-1,x) integrates ln Gamma ---")
h = 1e-5
for x in (0.2, 0.5, 0.8):
    fd = (loggamma_primitive(x + h).value - loggamma_primitive(x - h).value) / (2 * h)
    print(f"  x = {x}: P'(x) = {fd:+.9f}   ln Gamma(x) - ln(2 pi)/2 = "
          f"{math.lgamma(x) - 0.5 * math.log(2 * math.pi):+.9f}")
print()

print("--- integral of ln(Gamma/Gamma-reflected): the odd-zeta series Q(b) - Q(a) and P(b)+P(1-b)-P(a)-P(1-a) ---")
for (a, b) in ((0.1, 0.7), (0.0, 0.37), (0.55, 1.0)):
    c = loggamma_ratio_integral(a, b)
    p = math.fsum(s * loggamma_primitive(x).value for s, x in ((1, b), (1, 1 - b), (-1, a), (-1, 1 - a)))
    print(f"  [{a}, {b}]: series {c.value:+.12f}   P(b)+P(1-b)-P(a)-P(1-a) {p:+.12f}   diff {c.value - p:.1e}")
print()

print("--- Dedekind zeta log-derivatives at -1 for the shipped fields ---")
for fid in ("Q", "Qsqrt2", "Qsqrt3", "Qsqrt5", "Qsqrt6", "Qcos7", "Qcos9"):
    fs = get_field(fid)
    r = dedekind_log_deriv(fs)
    print(f"  {fid:7s} (degree {fs.degree}): zeta_F'(-1)/zeta_F(-1) = {r.value:+.12f}")
