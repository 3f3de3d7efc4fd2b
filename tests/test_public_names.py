"""Ratchet on the public names the ``ncjulia`` package exports.

Every public name of the package namespace, a class or function from one of
its modules, is a name callers may import.  The ones that exist are pinned
below; a new one fails this test, and a removed one must be dropped from the
list, so names are added or removed only on purpose.
"""

import inspect

import ncjulia

PINNED = {
    "AlphaEstimate", "AssumptionReport", "BPointReport", "BoundaryModel", "BoundaryPoint",
    "BoundaryValue",
    "ConvergenceError", "DeltaMatrix", "DimensionError", "DirectionalDerivativeResult",
    "Evaluation", "ExtrapolationResult", "Fixture", "FreePolynomial", "JuliaCheck",
    "JuliaQuotient", "JuliaSweep", "MatrixTuple", "Membership",
    "NcFunctionHandle", "ParseError", "PointStack", "PolyParseError",
    "PreconditionError", "RangeTestResult", "Realization", "SequenceEvaluation",
    "SingularMatrixError", "SolveOutcome", "TfaeReport", "UnknownNameError", "analyze_bpoint",
    "ball_delta", "boundary_identity_residual", "boundary_model",
    "boundary_point", "cartan_delta",
    "check_assumption_A", "cone_matrix", "delta_derivative", "delta_from_json", "delta_to_json",
    "estimate_alpha", "eta_numeric", "eval_delta", "eval_phi",
    "eval_poly", "eval_u", "evaluate", "evaluate_sequence", "evaluate_stack",
    "example_eta", "example_f", "example_h1_realization", "example_phi_closed", "example_psi",
    "extract_W", "extrapolate_limit", "find_transverse_direction", "format_poly",
    "gaussian_drafts", "generate_sequence", "get_closed_form", "get_delta", "get_fixture",
    "haar_unitary", "homogeneity_check", "identity_defect", "in_Delta",
    "in_G_delta", "inward_margin", "is_bpoint_range_test", "julia_inequality_check",
    "julia_quotient", "julia_sweep", "lift", "list_fixtures", "matrix_from_json", "matrix_to_json",
    "min_norm_solve", "model_residual", "nearest_unitary", "operator_norm",
    "parse_poly", "perturb_realization", "poly_from_json",
    "poly_to_json", "polydisk_delta", "random_interior_point",
    "random_realization", "realization_from_json", "realization_to_json",
    "resolvent_condition", "scalar_angular_derivative", "scale_into_domain",
    "sigma_span_dimension", "tfae_report", "tuple_from_json",
    "tuple_to_json",
}


def exported_names() -> set:
    """The public names of the package namespace, its submodules left out."""
    return {
        name for name, value in vars(ncjulia).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }


def test_exported_names_only_change_on_purpose():
    found = exported_names()
    assert sorted(found - PINNED) == [], "the package exports a new name"
    assert sorted(PINNED - found) == [], "a pinned name is gone: drop it from PINNED"
