"""Quadrature twin of ``specfun.loggamma_ratio_integral``, for the tests only.

It integrates ln Gamma(x) - ln Gamma(1-x) by scipy's adaptive Gauss-Kronrod
rule, independent of the odd-zeta series and of mpmath's log-Gamma
primitive, so the closed form is checked against a third route.
"""

import math

from scipy import integrate, special

from orbiheight.specfun import EvalResult


def _lgamma_int(lo: float, hi: float) -> tuple[float, float]:
    """integral of ln Gamma over [lo, hi] in (0, 1], absorbing the x=0 singularity.

    Near 0 the substitution x = u^2 turns the integrable ln-singularity into a
    continuous integrand for the adaptive Gauss-Kronrod rule.
    """
    if lo >= hi:
        return 0.0, 0.0
    total = 0.0
    err = 0.0
    cut = min(hi, 0.25)
    if lo < cut:
        v, e = integrate.quad(
            lambda u: 2.0 * u * special.gammaln(u * u),
            math.sqrt(lo), math.sqrt(cut), epsabs=1e-13, epsrel=1e-13, limit=200,
        )
        total += v
        err += e
        lo = cut
    if lo < hi:
        v, e = integrate.quad(special.gammaln, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)
        total += v
        err += e
    return total, err


def loggamma_ratio_integral_quad(a: float, b: float) -> EvalResult:
    """The integral of ln(Gamma(x)/Gamma(1-x)) over [a, b] by quadrature.

    The u^2 endpoint substitution applies at both ends.
    """
    if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
        raise ValueError(f"arguments must lie in [0, 1], got {a!r}, {b!r}")
    sign = 1.0
    if a > b:
        a, b = b, a
        sign = -1.0
    v1, e1 = _lgamma_int(a, b)
    # integral of ln Gamma(1-x) over [a, b] = integral of ln Gamma over [1-b, 1-a]
    v2, e2 = _lgamma_int(1.0 - b, 1.0 - a)
    return EvalResult(sign * (v1 - v2), e1 + e2 + 1e-14)
