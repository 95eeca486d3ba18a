"""The invariant checks behind ``orbiheight verify`` and the pytest suite.

Every check is registered once in ``CHECKS`` with its suite, its name, its
tolerance, its inputs and, when it belongs to one, the id of the acceptance
criterion it decides.  ``orbiheight verify`` runs the checks of a suite and
exits nonzero if any failed; the tests run the same registry (each
acceptance criterion its tagged checks, one parametrized test the rest), so
the installed package verifies itself with exactly the checks the suite
asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from . import fermat as fm
from . import fields as fl
from . import heights as hg
from . import shimura as sh
from . import specfun as sf
from . import tables as tb

__all__ = ["Check", "CheckResult", "CHECKS", "SUITES", "run_suite"]

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class Check:
    """One registered invariant.

    `fn(**inputs)` returns the residual, which passes when |residual| <= tol;
    a check without a tolerance returns (passed, detail) itself.
    """

    suite: str
    name: str
    fn: object
    tol: float | None = None
    criterion: str | None = None
    inputs: dict = field(default_factory=dict)

    def run(self) -> CheckResult:
        out = self.fn(**self.inputs)
        if self.tol is None:
            passed, detail = out
            return CheckResult(self.name, bool(passed), detail)
        return CheckResult(self.name, bool(abs(out) <= self.tol), f"max residual {out:.3e} (tol {self.tol:.1e})")


CHECKS: list[Check] = []


def _linspace(start: float, stop: float, num: int) -> list[float]:
    """numpy.linspace(start, stop, num) bitwise, as a list: i * step + start, then stop."""
    step = (stop - start) / (num - 1)
    return [*(i * step + start for i in range(num - 1)), stop]


def _rng(seed: int):
    # numpy loads only in the checks that draw seeded samples
    import numpy as np

    return np.random.default_rng(seed)


def _register(suite: str, name: str, tol: float | None = None, criterion: str | None = None, **inputs):
    def add(fn):
        CHECKS.append(Check(suite, name, fn, tol, criterion, inputs))
        return fn

    return add


# ---------------------------------------------------------------------------
# specfun
# ---------------------------------------------------------------------------

# the 15-, 23- and 25-point grids on [0.05, 5], merged
_RECURRENCE_XS = tuple(sorted({x for k in (15, 23, 25) for x in _linspace(0.05, 5.0, k)}))


@_register("specfun", "hurwitz recurrence", 1e-11, "09", s_values=(-3.0, -1.0, 0.5, 2.0), xs=_RECURRENCE_XS)
def _hurwitz_recurrence(s_values, xs):
    worst = 0.0
    for s in s_values:
        for x in xs:
            z = sf.hurwitz_zeta(s, x).value
            lhs = z - x**-s - sf.hurwitz_zeta(s, x + 1.0).value
            worst = max(worst, abs(lhs) / max(1.0, abs(z)))
    return worst


@_register("specfun", "Bernoulli identity zeta(-1,x) = -B2(x)/2", 1e-13, "09", seed=2024, n=200)
def _bernoulli_identity(seed, n):
    xs = _rng(seed).uniform(1e-6, 2.0, size=n)
    return max(abs(sf.hurwitz_zeta(-1.0, float(x)).value + sf.bernoulli2(float(x)).value / 2.0) for x in xs)


@_register("specfun", "multiplication theorem", 1e-11, "09", ks=tuple(range(2, 13)), s_values=(-1.0, -0.5, 2.0))
def _multiplication(ks, s_values):
    worst = 0.0
    for k in ks:
        for s in s_values:
            parts = [sf.hurwitz_zeta(s, i / k).value for i in range(1, k + 1)]
            rhs = k**s * sf.hurwitz_zeta(s, 1.0).value
            worst = max(worst, abs(sum(parts) - rhs), abs(math.fsum(parts) - rhs))
    return worst


@_register("specfun", "differentiated multiplication theorem", 1e-14, "09", ks=tuple(range(2, 13)))
def _multiplication_ds(ks):
    zeta_m1 = sf.hurwitz_zeta(-1.0, 1.0).value
    zeta_p = sf.hurwitz_zeta_ds(1.0).value
    worst = 0.0
    for k in ks:
        parts = [sf.hurwitz_zeta_ds(i / k).value for i in range(1, k + 1)]
        rhs = (zeta_p + math.log(k) * zeta_m1) / k
        worst = max(worst, abs(sum(parts) - rhs), abs(math.fsum(parts) - rhs))
    return worst


@_register("specfun", "primitive of log Gamma", 1e-6, "09", xs=(0.2, 0.5, 0.8), h=1e-4)
def _primitive_derivative(xs, h):
    worst = 0.0
    for x in xs:
        deriv = (sf.loggamma_primitive(x + h).value - sf.loggamma_primitive(x - h).value) / (2.0 * h)
        worst = max(worst, abs(deriv - (math.lgamma(x) - 0.5 * math.log(2.0 * math.pi))))
    return worst


@_register("specfun", "two-point identity gamma(0,V/2) + gamma(1-V/2,1) = 0", 1e-10, "09", seed=7, n=50)
def _two_point(seed, n):
    vs = _rng(seed).uniform(1e-3, 2.0 - 1e-3, size=n).tolist()
    return max(
        abs(sf.loggamma_ratio_integral(0.0, v / 2.0).value + sf.loggamma_ratio_integral(1.0 - v / 2.0, 1.0).value)
        for v in vs
    )


@_register("specfun", "gamma(0,1/4) + 3 gamma(1/2,3/4) = ln(2)/4", 1e-10, "09")
def _quarter():
    return (
        sf.loggamma_ratio_integral(0.0, 0.25).value
        + 3.0 * sf.loggamma_ratio_integral(0.5, 0.75).value
        - 0.25 * math.log(2.0)
    )


@_register("specfun", "Dedekind products are real", 1e-12)
def _dedekind_real():
    worst = 0.0
    for fs in fl.builtin_fields().values():
        prod = 1.0 + 0.0j
        tot = 0.0 + 0.0j
        for chi in fs.characters:
            lv = fl.dirichlet_L(chi)
            ld = fl.dirichlet_L_ds(chi)
            prod *= lv.value
            tot += ld.value / lv.value
        worst = max(worst, abs(prod.imag), abs(tot.imag))
    return worst


@_register("specfun", "L(-1, chi_8) matches Bernoulli arithmetic", 1e-12)
def _chi8_bernoulli():
    # 8 * sum chi(a) (-B2(a/8)/2), summed plainly and exactly
    parts = [s * (-sf.bernoulli2(a / 8.0).value / 2.0) for a, s in ((1, 1.0), (3, -1.0), (5, -1.0), (7, 1.0))]
    value = fl.dirichlet_L(fl.get_field("Qsqrt2").characters[1]).value.real
    return max(abs(value - 8.0 * sum(parts)), abs(value - 8.0 * math.fsum(parts)))


# ---------------------------------------------------------------------------
# heights
# ---------------------------------------------------------------------------


@_register("heights", "log-canonical table rows (10)", 1e-13, "01")
def _table1_rows():
    worst = 0.0
    for row in tb.TABLE1:
        fs = fl.get_field(row.field_id)
        lhs = hg.h_pet(row.indices.weights()).value + 0.5 + fl.dedekind_log_deriv(fs).value / fs.degree
        worst = max(worst, abs(lhs - row.constant.evaluate().value))
    return worst


@_register("heights", "Fano table rows (4)", 1e-13, "02")
def _table2_rows():
    base = 0.5 * (1.0 + math.log(math.pi))
    return max(
        abs(hg.h_can_fano(row.indices.weights()).value - base - row.constant.evaluate().value) for row in tb.TABLE2
    )


def semistable_grid(n: int):
    """K-semistable points of the n^3 grid on [0, 1]^3, with V off the wall."""
    vals = _linspace(0.0, 1.0, n)
    for w in ((a, b, c) for a in vals for b in vals for c in vals):
        if hg.k_semistable(w) and abs(hg.volume(w)) >= 1e-9:
            yield w


def _signed_height(w) -> float:
    return math.copysign(1.0, hg.volume(w)) * hg.h_can(w).value


_SHARP_BOUND = -0.5 * (1.0 + math.log(math.pi))


@_register("heights", "sharp bound +-h <= -(1+ln pi)/2 on 20^3 grid", 1e-9, "04", n=20)
def _sharp_bound(n):
    return max(max(_signed_height(w) - _SHARP_BOUND for w in semistable_grid(n)), 0.0)


@_register("heights", "sharp bound equality only at w = 0", None, "04", n=20)
def _sharp_equality(n):
    near = [w for w in semistable_grid(n) if _signed_height(w) > _SHARP_BOUND - 1e-9 and max(w) > 1e-12]
    return not near, f"near-equality away from 0 at {near[:3]}" if near else "checked on the same grid"


@_register("heights", "semi-ample sharp bound on grid", 1e-9, "04", n=20)
def _semiample_bound(n):
    bound = hg.bound_semiample((2.0 / 3.0, 2.0 / 3.0, 2.0 / 3.0))
    return max(max(hg.h_can_positive(w).value - bound for w in semistable_grid(n) if hg.volume(w) > 0), 0.0)


@_register("heights", "midpoint concavity (100 segments)", 1e-9, "10", seed=31415, n=100)
def _concavity(seed, n):
    rng = _rng(seed)
    worst = 0.0
    done = 0
    while done < n:
        wa, wb = (tuple(rng.uniform(0.0, 1.0, size=3).tolist()) for _ in range(2))
        if not (hg.k_semistable(wa) and hg.k_semistable(wb)):
            continue
        mid = tuple(0.5 * (a + b) for a, b in zip(wa, wb))
        va, vb = hg.volume(wa), hg.volume(wb)
        if not (min(va, vb) > 1e-3 or max(va, vb) < -1e-3):
            continue
        ha, hb, hm = (_signed_height(x) for x in (wa, wb, mid))
        worst = max(worst, 0.5 * (ha + hb) - hm)
        done += 1
    return worst


@_register(
    "heights",
    "permutation symmetry",
    1e-12,
    seed=17,
    n=30,
    perms=((1, 0, 2), (2, 1, 0), (0, 2, 1), (1, 2, 0), (2, 0, 1)),
)
def _permutation_symmetry(seed, n, perms):
    rng = _rng(seed)
    worst = 0.0
    done = 0
    while done < n:
        w = tuple(rng.uniform(0.0, 1.0, size=3).tolist())
        if not hg.k_semistable(w) or abs(hg.volume(w)) < 1e-2:
            continue
        ref = hg.h_can(w).value
        worst = max([worst, *(abs(hg.h_can(tuple(w[i] for i in p)).value - ref) for p in perms)])
        done += 1
    return worst


def _log_cy_constant() -> float:
    return -0.5 * math.log(math.pi) + 1.5 * (math.lgamma(2 / 3) - math.lgamma(1 / 3))


@_register("heights", "analytic continuation across V = 0", 1e-5, "07", above=(1e-5, 1e-6), below=(1e-5,))
def _continuation(above, below):
    # the signed height +-h extends across V = 0 with the V = 0 value given
    # by the normalization integral: lim h_can(K) = lim -h_can(-K) = h_CY
    limits = (hg.faltings_log_cy((2.0 / 3.0,) * 3).value, _log_cy_constant())
    his = [_signed_height((2.0 / 3.0 + v / 3.0,) * 3) for v in above]
    los = [_signed_height((2.0 / 3.0 - v / 3.0,) * 3) for v in below]
    return max([*(abs(h - c) for h in his + los for c in limits), *(abs(a - b) for a in his for b in los)])


@_register("heights", "log-CY value = sharp-bound constant", 1e-14, "07")
def _log_cy_value():
    return hg.faltings_log_cy((2.0 / 3.0,) * 3).value - _log_cy_constant()


# ---------------------------------------------------------------------------
# periods
# ---------------------------------------------------------------------------

_W_CAN = hg.WeightVector((0.75, 0.75, 0.75))
_W_FANO = hg.WeightVector((0.5, 0.5, 0.5))


def _canonical_gaps(ns) -> list[float]:
    from . import periods as pd

    return [abs(r.gap) for r in pd.convergence_report(_W_CAN, ns)]


@_register("periods", "canonical convergence strictly decreasing", None, "05", ns=(100, 1000, 10000))
def _canonical_decreasing(ns):
    gaps = _canonical_gaps(ns)
    return all(a > b for a, b in zip(gaps, gaps[1:])), f"gaps {gaps}"


@_register("periods", "canonical gap at N = 10^4", 5e-3, "05", n=10000)
def _canonical_gap(n):
    return _canonical_gaps((n,))[0]


@_register("periods", "convergence rate like 1/N", None, "05", ns=(100, 10000))
def _canonical_rate(ns):
    gaps = _canonical_gaps(ns)
    slope = (math.log(gaps[0]) - math.log(gaps[-1])) / (math.log(ns[-1]) - math.log(ns[0]))
    return 0.8 <= slope <= 1.2, f"fitted exponent {slope:.3f}"


@_register("periods", "anticanonical gap at N = 10^4", 1e-2, "05", n=10000)
def _anticanonical_gap(n):
    from . import periods as pd

    return pd.height_from_periods(pd.PeriodConfig(N=n, w=_W_FANO)).value - hg.h_can_fano(_W_FANO).value


def _random_period_config(rng, n: int, polarity: str, lo: float, hi: float):
    from . import periods as pd

    while True:
        try:
            return pd.PeriodConfig(N=n, w=rng.uniform(lo, hi, size=3).tolist(), polarity=polarity)
        except ValueError:
            continue


@_register(
    "periods",
    "df_log_z sum agrees with math.fsum (in units of err)",
    1.0,
    seed=20240903,
    ns=(2, 3, 10, 100, 1000, 10**4, 10**5, 10**6),
    fixed_ns=(1000, 54321, 100000),
)
def _df_sum(seed, ns, fixed_ns):
    # math.fsum is exact whatever the order of the terms, so it is the oracle
    # for the float reduction in df_log_z; seeded weights of both polarities
    # at each N of ns, and (3/4)^3 canonical at each N of fixed_ns
    from . import periods as pd

    rng = _rng(seed)
    cfgs = [pd.PeriodConfig(N=n, w=_W_CAN) for n in fixed_ns]
    for polarity, lo, hi in (("canonical", 0.5, 1.0), ("anticanonical", 0.2, 0.65)):
        cfgs += [_random_period_config(rng, n, polarity, lo, hi) for n in ns]
    worst = 0.0
    for cfg in cfgs:
        r = pd.df_log_z(cfg)
        # tolist copies each block before the next one overwrites it
        exact = math.fsum([pd._df_prefactor(cfg), *(t for terms in pd._df_blocks(cfg) for t in terms.tolist())])
        worst = max(worst, abs(r.value - exact) / r.err)
    return worst


@_register("periods", "Stirling consistency", 1e-3, n=100000)
def _stirling(n):
    # the prefactor of log Z_N over 2N against its large-N limit (1/2)(ln(V/2) - 1 + ln pi)
    from . import periods as pd

    cfg = pd.PeriodConfig(N=n, w=_W_CAN)
    return pd._df_prefactor(cfg) / (2.0 * n) - 0.5 * (math.log(cfg.w.volume / 2.0) - 1.0 + math.log(math.pi))


def _direct_integration(w):
    from . import periods as pd

    z_exact = math.exp(pd.df_log_z(pd.PeriodConfig(N=2, w=w)).value)
    return pd.mc_oracle_z(2, w, scheme="quadrature").value / z_exact - 1.0


for _w in (hg.WeightVector((5 / 6, 5 / 6, 5 / 6)), _W_FANO):
    _register("periods", f"N=2 direct integration ({_w.polarity})", 1e-2, "06", w=_w)(_direct_integration)


# ---------------------------------------------------------------------------
# shimura
# ---------------------------------------------------------------------------


def _hp_exact(cid):
    case = sh.get_case(cid)
    hp = sh.h_p_map(case)
    return hp == case.expected_h, str({p: str(v) for p, v in hp.items()})


def _hp_nonnegative(cid):
    return all(v >= 0 for v in sh.h_p_map(sh.get_case(cid)).values()), ""


def _hp_numeric(cid):
    case = sh.get_case(cid)
    numeric = (sh.yuan_height(case) - case.optimal).evaluate().value
    parts = [float(v) / float(case.scale()) * math.log(p) for p, v in sh.h_p_map(case).items()]
    return max(abs(numeric - sum(parts)), abs(numeric - math.fsum(parts)))


for _cid in ("disc6", "modular", "sqrt3", "sqrt6"):
    _register("shimura", f"h(p) exact for {_cid}", None, "03", cid=_cid)(_hp_exact)
    _register("shimura", f"h(p) nonnegative for {_cid}", cid=_cid)(_hp_nonnegative)
    _register("shimura", f"numeric cross-check for {_cid}", 1e-9, cid=_cid)(_hp_numeric)


@_register(
    "shimura",
    "orbifold degrees",
    expected=(((2, 4, 12), Fraction(1, 6)), ((3, 4, 6), Fraction(1, 4)), ((2, 3, math.inf), Fraction(1, 6)), ((6, 2, 6), Fraction(1, 6))),
)
def _orbifold_degrees(expected):
    bad = [m for m, want in expected if sh.orbifold_degree(hg.RamIndices(m)) != want]
    return not bad, f"wrong for {bad}" if bad else ""


# ---------------------------------------------------------------------------
# fermat
# ---------------------------------------------------------------------------


@_register("fermat", "height reduces to three-point formula + ln m", 0.0, ms=(4, 5, 7, 9, 12))
def _fermat_reduction(ms):
    return max(
        abs(fm.fermat_h_can(fm.FermatSpec(m)).value - (hg.h_can_positive((1.0 - 1.0 / m,) * 3).value + math.log(m)))
        for m in ms
    )


@_register("fermat", "eps_4 = ln 2 + 1/4", 0.0, "08b")
def _eps4():
    # (m-1)(m-2) - 2 = 4 at m = 4: eps_4 = (4 ln 4 + 1)/4 + ln(4/16)/2 = ln 2 + 1/4
    return fm.epsilon_m(4) - (math.log(2.0) + 0.25)


@_register("fermat", "eps_5 < eps_4")
def _eps5():
    return fm.epsilon_m(5) < fm.epsilon_m(4), ""


@_register("fermat", "eps_100 < 0.15")
def _eps100():
    return fm.epsilon_m(100) < 0.15, f"eps_100 = {fm.epsilon_m(100):.4f}"


@_register("fermat", "printed Arakelov constant truncates to -0.88", None, "08a")
def _printed_constant():
    printed = tb.PRINTED_DEVIATIONS["arakelov:second_constant"].evaluate().value + fm.epsilon_m(4)
    return -0.89 < printed < -0.88, f"recomputed printed constant {printed:.9f}"


@_register("fermat", "second-bound constant = f((3/4)^3) + ln(pi)/2", 1e-14)
def _second_constant():
    return fm.arakelov_upper_bound(4).second_constant.evaluate().value - hg.h_pi_normalized((0.75,) * 3).value


@_register("fermat", "f(t,t,t) decreasing on [0.7, 0.95]", ts=tuple(_linspace(0.7, 0.95, 26)))
def _diagonal_decreasing(ts):
    vals = [hg.h_can_positive((t,) * 3).value for t in ts]
    return all(a > b for a, b in zip(vals, vals[1:])), ""


@_register("fermat", "bound chain h_can + gap <= second bound on [4, 60]", ms=tuple(range(4, 61)))
def _bound_chain(ms):
    bad = [
        m
        for m in ms
        if fm.fermat_h_can(fm.FermatSpec(m)).value + fm.arakelov_gap(m) > fm.arakelov_upper_bound(m).second + 1e-9
    ]
    return not bad, f"fails for m in {bad}" if bad else "holds for every m"


# the suite names, in the order of their first registered check
SUITES = tuple(dict.fromkeys(c.suite for c in CHECKS))


def run_suite(name: str) -> list[CheckResult]:
    if name != "all" and name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {['all', *SUITES]}")
    return [c.run() for c in CHECKS if name in ("all", c.suite)]
