"""Finite-difference Caputo derivatives, a fractional relaxation solver, and
a convergence-study harness with golden regression tables."""

from .specfun import AlphaConstants, NonConvergenceError, alpha_constants, gamma, mittag_leffler_1, zeta
from .schemes import (
    ExpansionCoefficients,
    PropertyCheck,
    PropertyReport,
    SchemeId,
    WeightVector,
    build_weights,
    expansion_coefficients,
    nominal_order,
    normalized_lambda,
    scheme_norm,
    validate_weights,
)
from .caputo import (
    QuadratureError,
    SampledPath,
    TestFunction,
    apply_stencil,
    caputo_quadrature,
    exact_caputo_cos2pix,
    exact_caputo_exp,
    exact_caputo_power,
    fourth_order_eval,
    function_catalog,
    sample_path,
)
from .relaxation import (
    NS_LABELS,
    RelaxationProblem,
    SingularDenominatorError,
    SolveResult,
    StabilityVerdict,
    StartMode,
    default_start_mode,
    equation_catalog,
    first_step,
    solve,
    stability_check,
)
from .analysis import (
    CellCheck,
    ComparisonReport,
    ConvergenceRow,
    GoldenRow,
    GoldenTable,
    LadderMismatchError,
    RecomputeSpec,
    approximation_ladder,
    compare_golden,
    convergence_ladder,
    golden_catalog,
    run_golden,
)

__version__ = "0.1.0"
