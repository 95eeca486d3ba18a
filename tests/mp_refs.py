"""mpmath references of the package's quantities, each written once.

They import nothing of orbiheight, numpy or scipy, so a harness outside the
tests can import them too.  ``q_by_primitive``, ``q_by_quadrature`` and
``height_series`` set their own precision; every other reference runs at the
caller's.  Weights may be floats (taken exactly) or mpf.
"""

import functools
import math

import mpmath


def zeta_ds(x) -> mpmath.mpf:
    """zeta'(-1, x) = d/ds zeta(s, x) at s = -1; zeta'(-1) is zeta_ds(1)."""
    return mpmath.zeta(-1, x, 1)


def zeta_log_deriv() -> mpmath.mpf:
    """zeta'(-1)/zeta(-1) = -12 zeta'(-1), the Dedekind log derivative of Q."""
    return -12 * zeta_ds(1)


def primitive(x) -> mpmath.mpf:
    """P(x) = zeta(-1, x) + zeta'(-1, x) = -B_2(x)/2 + zeta'(-1, x), continued
    to x <= 0 by P(1), so an argument a rounding error below 0 reads as 0."""
    t = mpmath.mpf(x) if x > 0 else mpmath.mpf(1)
    return -(t * t - t + mpmath.mpf(1) / 6) / 2 + zeta_ds(t)


def gamma_integral(a, b) -> mpmath.mpf:
    """gamma(a, b), the integral of ln(Gamma(x)/Gamma(1 - x)) over [a, b]:
    P(b) + P(1 - b) - P(a) - P(1 - a)."""
    a, b = mpmath.mpf(a), mpmath.mpf(b)
    return primitive(b) + primitive(1 - b) - primitive(a) - primitive(1 - a)


@functools.cache
def q_by_primitive(x: float) -> mpmath.mpf:
    """Q(x) - Q(0) = gamma(0, y), y = min(x, 1 - x), with 30 digits beyond the
    cancellation: the precision holds 1 - y exactly.  It is rounded up to a
    multiple of 128 bits, so that mpmath reuses the Bernoulli numbers it
    caches per precision.  gamma(0, y) is spelled out as
    P(y) + P(1 - y) - 2 P(1) to take P(1) from a cache per precision:
    through :func:`gamma_integral` the specfun tests run a third slower."""
    y = min(x, 1.0 - x)  # exact where x > 1/2
    prec = 128 * math.ceil((100 + max(0, -math.frexp(y)[1])) / 128)
    with mpmath.workprec(prec):
        return primitive(y) + primitive(1 - mpmath.mpf(y)) - 2 * _primitive_one(prec)


@functools.cache
def _primitive_one(prec: int) -> mpmath.mpf:
    with mpmath.workprec(prec):
        return primitive(1)


def q_by_quadrature(x: float) -> mpmath.mpf:
    """Q(x) - Q(0) at 40 digits, for x in [0, 1], independent of P: with
    y = min(x, 1 - x), y - y ln y plus the integral of the smooth
    ln Gamma(1 + u) - ln Gamma(1 - u) over [0, y] by tanh-sinh quadrature,
    in which nothing cancels, however small y is."""
    with mpmath.workdps(40):
        y = min(mpmath.mpf(x), 1 - mpmath.mpf(x))
        if y == 0:
            return mpmath.mpf(0)
        smooth = mpmath.quad(lambda u: mpmath.loggamma(1 + u) - mpmath.loggamma(1 - u), [0, y])
        return y - y * mpmath.log(y) + smooth


def ln_l(x) -> mpmath.mpf:
    """ln |l(x)|, l(x) = Gamma(x)/Gamma(1 - x), at any x off the integers."""
    return mpmath.log(abs(mpmath.gamma(x) / mpmath.gamma(1 - mpmath.mpf(x))))


def wall(w) -> mpmath.mpf:
    """The V = 0 value -(1/2) ln(pi / (l(w1) l(w2) l(w3)))."""
    return -(mpmath.log(mpmath.pi) - sum(ln_l(x) for x in w)) / 2


def height(w) -> mpmath.mpf:
    """The closed-form height at the weights w, each side of V = 0 its own
    formula in gamma(a, b):

        V > 0:  (1 - ln(pi V/2))/2 - [gamma(0, V/2) - sum_i gamma(w_i - V/2, w_i)] / V
        V < 0:  (1 + ln(pi/(-V/2)))/2 + [gamma(0, -V/2) + sum_i gamma(w_i, w_i - V/2)] / V
    """
    w = [mpmath.mpf(x) for x in w]
    v = sum(w) - 2
    if v > 0:
        bracket = gamma_integral(0, v / 2) - sum(gamma_integral(x - v / 2, x) for x in w)
        return (1 - mpmath.log(mpmath.pi * v / 2)) / 2 - bracket / v
    bracket = gamma_integral(0, -v / 2) + sum(gamma_integral(x, x - v / 2) for x in w)
    return (1 + mpmath.log(mpmath.pi / (-v / 2))) / 2 + bracket / v


@functools.cache
def _odd_zeta_coefficients(dps: int) -> tuple:  # 2 zeta(k) / (k (k+1)), odd k = 3..79
    with mpmath.workdps(dps):
        return tuple(2 * mpmath.zeta(k) / (k * (k + 1)) for k in range(3, 81, 2))


def height_series(w, dps: int = 30) -> mpmath.mpf:
    """The height at dps digits, independent of P and ten times faster than
    :func:`height`, from Q(x) - Q(0) = x - x ln x - euler_gamma x^2
    - 2 sum_{k odd >= 3} zeta(k) x^(k+1) / (k (k+1)), Q(x) = Q(1 - x); through
    k = 79 the omitted terms are below 1e-26 on [0, 1/2]."""
    with mpmath.workdps(dps):

        def q(x):
            x = min(x, 1 - x)
            if x == 0:
                return mpmath.mpf(0)
            x2 = x * x
            series = mpmath.mpf(0)
            for c in reversed(_odd_zeta_coefficients(dps)):
                series = series * x2 + c
            return x - x * mpmath.log(x) - mpmath.euler * x2 - series * x2 * x2

        w = [mpmath.mpf(x) for x in w]
        v = sum(w) - 2
        s = 1 if v > 0 else -1
        bracket = q(abs(v) / 2) + sum(q(x - v / 2) - q(x) for x in w)
        return s * (-mpmath.log(mpmath.pi) / 2 + s * (1 - mpmath.log(abs(v) / 2)) / 2 - bracket / v)


def epsilon(m: int) -> mpmath.mpf:
    """eps_m = (4 ln a + 1)/a + (1/2) ln(a/m^2), a = 2((m - 1)(m - 2)/2 - 1)."""
    a = (m - 1) * (m - 2) - 2
    return (4 * mpmath.log(a) + 1) / a + mpmath.log(mpmath.mpf(a) / m**2) / 2


def arakelov_gap(m: int) -> mpmath.mpf:
    """(1/2) [(4 ln(2g - 2) + 1)/(g - 1) + ln(pi (g - 1))], g = (m - 1)(m - 2)/2."""
    n = (m - 1) * (m - 2) // 2 - 1
    return ((4 * mpmath.log(2 * n) + 1) / n + mpmath.log(mpmath.pi * n)) / 2


def dedekind_log_deriv(characters) -> mpmath.mpf:
    """The sum of L'(-1)/L(-1) over (modulus f, {a: k}) pairs, chi(a) = e^(2 pi i k),
    L(s) = f^-s sum_a chi(a) zeta(s, a/f), differentiated by mpmath.diff."""
    total = 0
    for f, angles in characters:
        terms = [(a if f > 1 else 1, mpmath.expjpi(2 * mpmath.mpf(k.numerator) / k.denominator)) for a, k in angles.items()]

        def L(s, f=f, terms=terms):
            return mpmath.mpf(f) ** -s * sum(c * mpmath.zeta(s, mpmath.mpf(a) / f) for a, c in terms)

        total += mpmath.diff(L, -1) / L(-1)
    return total.real


def log_z(n: int, w) -> mpmath.mpf:
    """log Z_N = log N! + N (ln pi - ln l(h)) + sum_j [ln l((j + 1) h) - sum_i ln l(w_i - j h)],
    h = |V|/(2(N - 1)), the polarity fixed by the sign of V, with each l at a
    positive argument: the Fano product (V < 0) reads -l(-y) = 1/(y^2 l(y))
    and w_i + j h."""
    w = [mpmath.mpf(x) for x in w]
    v = sum(w) - 2
    fano = v < 0
    h = abs(v) / (2 * (n - 1))

    def num(y):
        return -2 * mpmath.log(y) - ln_l(y) if fano else ln_l(y)

    total = mpmath.log(mpmath.factorial(n)) + n * (mpmath.log(mpmath.pi) - num(h))
    for j in range(n):
        total += num((j + 1) * h) - sum(ln_l(x + j * h if fano else x - j * h) for x in w)
    return total
