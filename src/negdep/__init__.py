"""Negatively dependent sampling schemes.

Samplers for stratified, Latin hypercube, midpoint-lattice and randomized
rank-1 lattice point sets; an exact (rational arithmetic) analyzer for
pairwise dependence over anchored boxes; and a replication variance lab
comparing scheme quadratures to the Monte Carlo baseline.
"""

__version__ = "0.1.0"

from .exact import Rational, format_rational, is_prime, parse_rational
from .rng import RngStream
from .schemes import (
    SchemeSpec,
    full_rsj,
    is_marginally_uniform,
    lhs_spec,
    patterson_spec,
    stratified_spec,
)
from .samplers import (
    PointSet,
    generate,
    point_set_from_csv,
    point_set_from_json,
    point_set_to_csv,
    point_set_to_json,
)
from .analyzer import (
    AnchoredBox,
    BudgetExceededError,
    DependenceReport,
    HypothesisViolatedError,
    UnsupportedSchemeError,
    copula_equality_check,
    coordinate_independence_check,
    no_shift_mass,
    nuod_scan,
    pair_box_prob,
    pair_marginal_prob,
    shift_only_conditional,
    stratified_pair_box_prob,
    triple_distinguisher,
)
from .variance import (
    Integrand,
    VarianceResult,
    integrand_library,
    variance_compare,
)
