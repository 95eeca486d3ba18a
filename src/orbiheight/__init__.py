"""Canonical heights of weighted log pairs on the arithmetic projective line.

The package computes the Kahler-Einstein-normalized height of the (anti-)log
canonical bundle of (P^1, divisor at {0, 1, infinity}) in closed form via the
Hurwitz zeta function and its s-derivative at -1, cross-checks it against
period limits and direct integration, and derives the downstream exact
quantities: closed-form height tables, local invariants h(p) of Shimura-curve
integral models, and explicit Arakelov bounds for Fermat curves.
"""

from .fields import FieldSpec, builtin_fields, dedekind_log_deriv, dirichlet_L, dirichlet_L_ds, get_field
from .fermat import FermatSpec, arakelov_gap, arakelov_upper_bound, epsilon_m, fermat_h_can, genus
from .heights import (
    RamIndices,
    WeightVector,
    bound_linear_fano,
    bound_semiample,
    faltings_log_cy,
    four_point_h_can,
    fujita_height_pn,
    h_can,
    h_can_fano,
    h_can_positive,
    h_pet,
    h_pi_normalized,
    k_semistable,
    shift_by_a,
    volume,
)
from .lcombo import LogCombo, rationalize
from .shimura import ShimuraCase, builtin_cases, get_case, h_p_map, orbifold_degree, optimal_pet_height, yuan_height
from .specfun import (
    EvalResult,
    bernoulli2,
    digamma,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log_gamma,
    loggamma_primitive,
    loggamma_ratio_integral,
)
from .tables import TABLE1, TABLE2

__version__ = "0.1.0"

# The period route is the one public layer that needs numpy; its names load
# it on first use (PEP 562), so importing the package does not.
_PERIODS_NAMES = ("PeriodConfig", "convergence_report", "df_log_z", "height_from_periods", "mc_oracle_z")


def __getattr__(name):
    if name in _PERIODS_NAMES:
        from . import periods

        return getattr(periods, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted([*globals(), *_PERIODS_NAMES])
