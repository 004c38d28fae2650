"""Finite difference solvers for one-dimensional space-fractional
boundary-value and diffusion problems with boundary weak singularities,
plus a two-grid extrapolation correction that restores second-order
accuracy for non-smooth solutions."""

from .analytic import (
    PowerSum,
    PowerTerm,
    elliptic_rhs,
    left_derivative,
    left_rl_derivative_power,
    right_derivative,
    singular_exponents,
)
from .catalog import (
    CATALOG_NAMES,
    ProblemSpec,
    SingularTermSpec,
    TimeDependentProblem,
    catalog,
    manufactured,
    singular_term,
    with_overrides,
)
from .correction import CorrectedSolution, correct
from .grids import Grid, GridFunction
from .report import ConvergenceReport, emit_pointwise_error, emit_report, parse_report_json
from .solver import (
    FracParams,
    KrylovError,
    SchemeKind,
    SolverError,
    solve_bvp,
)
from .study import StudyConfig, reference_solution, run_study, run_time_study
from .timestepper import TimeGrid, cn_wsgd_solve
from .weights import (
    WeightTable,
    grunwald_coeffs,
    weight_table,
    wsgd_weights,
)

__version__ = "0.1.0"
