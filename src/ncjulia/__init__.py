"""Workbench for bounded functions of non-commuting matrix variables.

Evaluates functions given by isometric transfer-function colligations on
polynomial matrix domains and verifies their boundary regularity: Julia
quotients, unitary boundary values, boundary model vectors, the boundary
Schwarz-Pick inequality, and one-sided directional derivatives.
"""

from .errors import (
    ConvergenceError,
    DimensionError,
    ParseError,
    PolyParseError,
    PreconditionError,
    SingularMatrixError,
    UnknownNameError,
)
from .numerics import (
    ExtrapolationResult,
    SolveOutcome,
    extrapolate_limit,
    haar_unitary,
    matrix_from_json,
    matrix_to_json,
    min_norm_solve,
    nearest_unitary,
    operator_norm,
)
from .freepoly import (
    FreePolynomial,
    MatrixTuple,
    eval_poly,
    format_poly,
    lift,
    parse_poly,
    poly_from_json,
    poly_to_json,
    tuple_from_json,
    tuple_to_json,
)
from .domain import (
    AssumptionReport,
    BoundaryPoint,
    DeltaMatrix,
    Membership,
    PointStack,
    boundary_point,
    check_assumption_A,
    cone_matrix,
    delta_derivative,
    delta_from_json,
    delta_to_json,
    eval_delta,
    find_transverse_direction,
    gaussian_drafts,
    generate_sequence,
    in_Delta,
    in_G_delta,
    inward_margin,
    random_interior_point,
    scale_into_domain,
    sigma_span_dimension,
)
from .realization import (
    Evaluation,
    NcFunctionHandle,
    Realization,
    eval_phi,
    eval_u,
    evaluate,
    evaluate_stack,
    identity_defect,
    model_residual,
    perturb_realization,
    random_realization,
    realization_from_json,
    realization_to_json,
    resolvent_condition,
)
from .boundary import (
    AlphaEstimate,
    BPointReport,
    BoundaryModel,
    BoundaryValue,
    JuliaCheck,
    JuliaQuotient,
    JuliaSweep,
    RangeTestResult,
    SequenceEvaluation,
    TfaeReport,
    analyze_bpoint,
    boundary_identity_residual,
    boundary_model,
    estimate_alpha,
    evaluate_sequence,
    extract_W,
    is_bpoint_range_test,
    julia_inequality_check,
    julia_quotient,
    julia_sweep,
    tfae_report,
)
from .derivative import (
    DirectionalDerivativeResult,
    eta_numeric,
    homogeneity_check,
    scalar_angular_derivative,
)
from .fixtures import (
    Fixture,
    ball_delta,
    cartan_delta,
    example_eta,
    example_f,
    example_h1_realization,
    example_phi_closed,
    example_psi,
    get_closed_form,
    get_delta,
    get_fixture,
    list_fixtures,
    polydisk_delta,
)

__version__ = "0.1.0"
