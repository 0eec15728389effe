"""gue-gap-lab: finite-n GUE gap probabilities with verified structure.

The package computes the probability P(n, a) that an n x n Gaussian
unitary ensemble matrix has no eigenvalue in (-a, a), working through the
orthogonal polynomials of the Gaussian weight with the interval (-a, a)
removed.  Everything runs in certified arbitrary precision, and the
recurrence, difference and differential equations satisfied by the edge
quantities are checked as numerical residuals rather than assumed.
"""

from .exceptions import (
    BranchSelectionError,
    DegenerateDenominatorError,
    DomainError,
    EdgeZeroError,
    GapLabError,
    IllConditioningError,
    PrecisionExhaustedError,
)
from .precision import PrecisionPolicy
from .orthopoly import RecurrenceTable, build_recurrence_table, hermite_norms_exact
from .ladder import (
    LadderState,
    ladder_states,
    residual_identities,
    residual_supplementary,
    spectral_samples,
)
from .difference_eqs import (
    BranchChoice,
    DiscreteOrbit,
    iterate_r_orbit,
    residual_R_recurrence,
    residual_alternate_r,
    residual_orbit_vs_direct,
    residual_sigma_recurrence,
    select_r_branch,
)
from .differential_eqs import (
    DerivativeSource,
    build_a_grid,
    continuous_suite,
    convergence_study,
    fd_derivative,
    jet_source,
    residual_chazy,
    residual_derivative_identities,
    residual_painleve4,
    residual_riccati,
    residual_sigma_form,
)
from .probability import (
    ProbabilityRecord,
    gap_probability_fredholm,
    hermite_function_values,
    probability_record,
    residual_oracle,
)
from .report import ResidualCheck, ResidualReport, relative_residual, sci_str

__version__ = "0.1.0"

__all__ = [
    "BranchChoice",
    "BranchSelectionError",
    "DegenerateDenominatorError",
    "DerivativeSource",
    "DiscreteOrbit",
    "DomainError",
    "EdgeZeroError",
    "GapLabError",
    "IllConditioningError",
    "LadderState",
    "PrecisionExhaustedError",
    "PrecisionPolicy",
    "ProbabilityRecord",
    "RecurrenceTable",
    "ResidualCheck",
    "ResidualReport",
    "build_a_grid",
    "build_recurrence_table",
    "continuous_suite",
    "convergence_study",
    "fd_derivative",
    "gap_probability_fredholm",
    "hermite_function_values",
    "hermite_norms_exact",
    "iterate_r_orbit",
    "jet_source",
    "ladder_states",
    "probability_record",
    "relative_residual",
    "residual_R_recurrence",
    "residual_alternate_r",
    "residual_chazy",
    "residual_derivative_identities",
    "residual_identities",
    "residual_oracle",
    "residual_orbit_vs_direct",
    "residual_painleve4",
    "residual_riccati",
    "residual_sigma_form",
    "residual_sigma_recurrence",
    "residual_supplementary",
    "sci_str",
    "select_r_branch",
    "spectral_samples",
    "__version__",
]
