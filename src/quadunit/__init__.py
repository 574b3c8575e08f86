"""quadunit: exact arithmetic for real quadratic fields.

Continued fractions of w[d], fundamental units, reduced ideals with
canonical bases, quadratic progressions of radicands representing a fixed
norm, square-free density of those progressions, and cross-field surveys.
All number-theoretic paths run in exact integer arithmetic.
"""

from .arith import (
    BudgetError,
    Factorization,
    UnfactoredError,
    factor_budget,
    factorize,
    is_square,
    is_squarefree,
    isqrt,
    jacobi,
    mod_inverse,
    squarefree_kernel,
    trial_bound,
)
from .contfrac import (
    CFExpansion,
    QuadIrr,
    convergent_xi,
    convergents,
    expand_omega,
    fundamental_unit,
    is_reduced,
    regulator,
    residuals_hold,
)
from .ideals import (
    IdealBasis,
    alpha_of_ideal,
    conjugate_coprime,
    count_reduced_formula,
    is_reduced_ideal,
    norm_ideal_candidates,
    omega_ideal,
    principal_basis,
    reduced_ideals_of_norm,
    xi_alpha_check,
)
from .progressions import (
    CoverageReport,
    DensityPrediction,
    IndexPair,
    Progression,
    ScanBudgetError,
    build_progression,
    coverage_report,
    empirical_density,
    hensel_quadratic,
    index_pairs,
    omega_p_predicted,
    predicted_density,
    solve_n0,
    squarefree_flags,
    squarefree_flags_quadratic,
)
from .quadfield import (
    FieldContext,
    QuadInt,
    field_context,
    format_quadint,
    is_minimal,
    qi_compare,
)
from .survey import (
    BoundReport,
    EMuReport,
    FMuReport,
    IdentityVerdict,
    E_mu,
    e_mu_stream,
    f_mu,
    minimal_elements,
    negative_pell,
    ramified_identity_check,
    rank_correlation,
    split_identity_check,
    theorem_bound_sweep,
)

__version__ = "0.1.0"
