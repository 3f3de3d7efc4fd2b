"""Boundary-point analysis: Julia quotients, boundary values, model limits.

A boundary point T is a B-point for the function phi when the quotient

    || I - phi(Z)* phi(Z) || / (1 - ||Delta(Z)||^2)

stays bounded along some sequence of interior points approaching T.  At such
points phi has a unitary boundary value W, the model vector has a limit u_T
solving a consistent singular system, and a boundary Schwarz-Pick inequality
holds on the whole domain.  This module estimates all of these numerically
and verifies the identities they satisfy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import (
    ApproachSequence,
    eval_delta,
    find_transverse_direction,
    InwardWitnessResult,
    on_distinguished_boundary,
    radial_sequence,
    ray_sequence,
    _block_rows,
    _check_margin,
    _gaussian_draft,
    _into_domain,
    _sequence_in_domain,
    DISTINGUISHED_TOL,
    SAMPLE_MARGIN,
    SEQUENCE_FIRST_STEP,
)
from .errors import ConvergenceError, DimensionError, PreconditionError, SingularMatrixError
from .freepoly import MatrixTuple
from .numerics import (
    PINV_RTOL,
    extrapolate_limit,
    min_norm_solve,
    nearest_unitary,
    operator_norm,
)
from .realization import NcFunctionHandle, PointEvaluation, _identity_defect, _model_operators
from .realization import _evaluate_at, _evaluate_stack, evaluate
# unused here; perfbench's test_tracer_restores_every_binding reads boundary.eval_phi
from .realization import eval_phi  # noqa: F401

CONVERGENCE_RTOL = 1e-3
UNITARY_DISTANCE_TOL = 1e-4
APERTURE_CAP = 1e6
COMPARABILITY_RTOL = 1e-8
DEGENERATE_TOL = 1e-12
RANGE_TOL = 1e-8  # largest range-test residual of a B-point
JULIA_RTOL = 1e-8  # relative slack of the Julia inequality
WITNESS_STARTS = 8  # random starts of the range test's inward-witness search
SEQUENCE_STEPS = 12  # points of analyze_bpoint's approach sequence
JULIA_SAMPLES = 100  # interior points of analyze_bpoint's Julia sweep


@dataclass(frozen=True)
class JuliaQuotient:
    """The boundedness quotient at one interior point, with its two parts."""

    value: float
    numerator: float
    denominator: float

    def __float__(self):
        return self.value


def julia_quotient(h: NcFunctionHandle, z: MatrixTuple) -> JuliaQuotient:
    """Quotient || I - phi(Z)* phi(Z) || / (1 - ||Delta(Z)||^2) at interior Z."""
    return _quotient_at(evaluate(h, z))


def _quotient_at(ev: PointEvaluation) -> JuliaQuotient:
    numerator = operator_norm(np.eye(ev.x.n) - ev.phi.conj().T @ ev.phi)
    denominator = 1.0 - ev.delta_norm**2
    return JuliaQuotient(
        value=numerator / denominator, numerator=numerator, denominator=denominator
    )


def _evaluate_sequence(h: NcFunctionHandle, seq: ApproachSequence):
    """The interior points of the sequence and their evaluations, one Delta per point."""
    pts, big_delta, norms = _sequence_in_domain(seq, h.delta)
    return pts, _evaluate_stack(h, pts.points, big_delta, norms)


@dataclass(frozen=True)
class AlphaEstimate:
    """Extrapolated limit of the quotient along an approach sequence.

    ``is_liminf`` is set for radial sequences over grids homogeneous of
    degree one, where the radial limit equals the unrestricted liminf; for
    any other sequence the value is only a sequence-wise estimate.
    """

    alpha: float
    quotients: tuple
    steps: tuple
    increments: tuple
    converged: bool
    diverging: bool
    is_liminf: bool


def estimate_alpha(h: NcFunctionHandle, seq: ApproachSequence) -> AlphaEstimate:
    """Estimate the quotient limit along the sequence by Richardson extrapolation."""
    return _alpha_along(h, seq, *_evaluate_sequence(h, seq))


def _alpha_along(h: NcFunctionHandle, seq: ApproachSequence, pts, evals) -> AlphaEstimate:
    if len(pts.points) < 2:
        raise PreconditionError("need at least two interior sequence points")
    quotients = [_quotient_at(ev).value for ev in evals]
    is_liminf = seq.kind == "radial" and h.delta.is_homogeneous_degree_one()

    # bounded quotients may approach their limit from below, so growth alone
    # is not divergence; divergence means significant increments that fail to
    # decay (geometric steps make converging increments shrink by about half)
    diverging = False
    if len(quotients) >= 3:
        d_prev = quotients[-2] - quotients[-3]
        d_last = quotients[-1] - quotients[-2]
        significant = d_last > 1e-6 * max(1.0, abs(quotients[-1]))
        diverging = significant and d_prev > 0 and d_last >= 0.9 * d_prev
    if diverging:
        return AlphaEstimate(
            alpha=float("inf"),
            quotients=tuple(quotients),
            steps=tuple(pts.steps),
            increments=(),
            converged=False,
            diverging=True,
            is_liminf=False,
        )
    res = extrapolate_limit(list(zip(pts.steps, quotients)))
    alpha = float(np.real(res.value.reshape(())))
    last_increment = res.increments[-1] if res.increments else 0.0
    converged = last_increment <= CONVERGENCE_RTOL * max(1.0, abs(alpha))
    return AlphaEstimate(
        alpha=alpha,
        quotients=tuple(quotients),
        steps=tuple(pts.steps),
        increments=res.increments,
        converged=converged,
        diverging=False,
        is_liminf=is_liminf,
    )


@dataclass(frozen=True)
class BoundaryValue:
    """Unitary boundary value extracted from an approach sequence."""

    W: np.ndarray
    unitary_distance: float  # spectral distance from the raw limit to W


def extract_W(h: NcFunctionHandle, seq: ApproachSequence) -> BoundaryValue:
    """Extrapolate phi along the sequence and project onto the unitary group.

    A raw limit farther than ``UNITARY_DISTANCE_TOL`` from unitary is treated
    as evidence that the base point is not a B-point.
    """
    pts, evals = _evaluate_sequence(h, seq)
    return _boundary_value_along(pts.steps, evals)


def _boundary_value_along(steps, evals) -> BoundaryValue:
    if len(evals) < 2:
        raise PreconditionError("need at least two interior sequence points")
    raw = extrapolate_limit(list(zip(steps, [ev.phi for ev in evals]))).value
    try:
        w = nearest_unitary(raw)
    except SingularMatrixError as exc:
        raise ConvergenceError(
            f"limit of phi along the sequence is singular, no unitary boundary value: {exc}"
        ) from None
    distance = operator_norm(raw - w)
    if distance > UNITARY_DISTANCE_TOL:
        raise ConvergenceError(
            f"limit of phi is {distance:.3e} away from unitary "
            f"(threshold {UNITARY_DISTANCE_TOL:.0e}); base point looks like a non-B-point"
        )
    return BoundaryValue(W=w, unitary_distance=distance)


def _kernel_bases(matrix: np.ndarray) -> tuple:
    """Orthonormal bases of the kernel and the cokernel of a square matrix, from one SVD."""
    u, s, vh = np.linalg.svd(matrix)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(matrix.shape[0]), np.eye(matrix.shape[0])
    mask = s <= PINV_RTOL * s[0] * max(matrix.shape) ** 0.5
    return vh.conj().T[:, mask], u[:, mask]


@dataclass(frozen=True)
class ModelVectorAtBoundary:
    """Minimum-norm solution of the boundary model system.

    ``range_residual`` is the norm of the unsolved part (zero exactly when the
    right-hand side lies in the range, which is the B-point criterion);
    ``kernel_orthogonality`` measures the component of the solution inside the
    system kernel; ``kernel_defect`` measures how far kernel and co-kernel are
    from coinciding, which flags colligations that are not isometric.
    """

    u_T: np.ndarray
    range_residual: float
    kernel_orthogonality: float
    kernel_defect: float


def solve_uT(h: NcFunctionHandle, t: MatrixTuple) -> ModelVectorAtBoundary:
    """Solve the singular boundary system for the model vector at T."""
    if not on_distinguished_boundary(h.delta, t):
        raise PreconditionError(
            "model vector at the boundary requires T on the distinguished boundary"
        )
    return _solve_uT_at(h, eval_delta(h.delta, t), t.n)


def _solve_uT_at(h: NcFunctionHandle, big_delta: np.ndarray, n: int) -> ModelVectorAtBoundary:
    """:func:`solve_uT` at a distinguished boundary point T with Delta(T) = big_delta."""
    resolvent, rhs, _ = _model_operators(h, big_delta, n)
    outcome = min_norm_solve(resolvent, rhs)
    kernel, cokernel = _kernel_bases(resolvent)
    orthogonality = (
        operator_norm(kernel.conj().T @ outcome.solution) if kernel.shape[1] else 0.0
    )
    if kernel.shape[1] or cokernel.shape[1]:
        p_ker = kernel @ kernel.conj().T
        p_coker = cokernel @ cokernel.conj().T
        defect = operator_norm(p_ker - p_coker)
    else:
        defect = 0.0
    return ModelVectorAtBoundary(
        u_T=outcome.solution,
        range_residual=outcome.residual_norm,
        kernel_orthogonality=orthogonality,
        kernel_defect=defect,
    )


@dataclass(frozen=True)
class RangeTestResult:
    """Verdict of the range-membership B-point test.

    ``conditional`` marks a verdict issued without a transverse inward
    witness: the criterion's hypothesis could not be confirmed, only searched
    for unsuccessfully.
    """

    is_bpoint: bool
    conditional: bool
    solution: ModelVectorAtBoundary
    inward_witness: InwardWitnessResult

    def __bool__(self):
        return self.is_bpoint


def is_bpoint_range_test(h: NcFunctionHandle, t: MatrixTuple) -> RangeTestResult:
    """B-point iff the boundary system is consistent: residual <= RANGE_TOL."""
    return _range_test_with(h, t, solve_uT(h, t), RANGE_TOL, seed=0)


def _range_test_with(
    h: NcFunctionHandle, t: MatrixTuple, solution: ModelVectorAtBoundary, tol: float, seed: int
) -> RangeTestResult:
    """:func:`is_bpoint_range_test` given the boundary model system's solution at T."""
    witness = find_transverse_direction(h.delta, t, n_starts=WITNESS_STARTS, seed=seed)
    return RangeTestResult(
        is_bpoint=solution.range_residual <= tol,
        conditional=not witness.found,
        solution=solution,
        inward_witness=witness,
    )


@dataclass(frozen=True)
class JuliaCheck:
    """One evaluation of the boundary Schwarz-Pick inequality.

    ``holds`` is None when the left-hand denominator degenerates (phi nearly
    unitary at an interior point) and the point is skipped.
    """

    lhs: float | None
    rhs: float
    holds: bool | None
    skipped: bool


def julia_inequality_check(
    h: NcFunctionHandle,
    t: MatrixTuple,
    w: np.ndarray,
    alpha: float,
    z: MatrixTuple,
    rel_tol: float = JULIA_RTOL,
) -> JuliaCheck:
    """Check ||phi(Z)-W||^2 / ||I-phi*phi|| <= alpha ||I-Delta(T)*Delta(Z)||^2 / (1-||Delta(Z)||^2)."""
    if z.n != t.n:
        raise DimensionError("Z must have the same matrix size as T")
    ev = evaluate(h, z)
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (z.n, z.n):
        raise DimensionError(f"W has shape {w.shape}, expected ({z.n}, {z.n})")
    return _julia_check_at(ev, eval_delta(h.delta, t), w, alpha, rel_tol)


def _julia_check_at(ev: PointEvaluation, dt, w, alpha, rel_tol) -> JuliaCheck:
    quotient = _quotient_at(ev)
    gram = operator_norm(np.eye(dt.shape[0]) - dt.conj().T @ ev.delta)
    rhs = alpha * gram**2 / quotient.denominator
    if quotient.numerator <= DEGENERATE_TOL:
        return JuliaCheck(lhs=None, rhs=rhs, holds=None, skipped=True)
    lhs = operator_norm(ev.phi - w) ** 2 / quotient.numerator
    return JuliaCheck(
        lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs * (1.0 + rel_tol) + 1e-15), skipped=False
    )


@dataclass(frozen=True)
class JuliaSweep:
    """Julia-inequality tallies; ``identity_max`` is tracked only when u_T is given."""

    checked: int = 0
    violations: int = 0
    skipped: int = 0
    max_ratio: float | None = None
    identity_max: float | None = None


def _julia_sweep(h, rng, dt, w, alpha, samples, margin, rel_tol, u_t=None) -> JuliaSweep:
    """Check the inequality at ``samples`` random interior points, each evaluated once.

    The points are those of ``samples`` calls of ``random_interior_point`` on
    rng: their Gaussian drafts are drawn in its stream order, one block at a
    time, and each block is scaled into the domain by one stacked call.
    """
    checked = violations = skipped = 0
    max_ratio = identity_max = None
    n = w.shape[0]
    block = _block_rows(h.delta, n)
    for start in range(0, samples, block):
        drafts = [_gaussian_draft(h.delta.d, n, rng) for _ in range(min(block, samples - start))]
        # the Delta(x) that accepted each sample is the one its evaluation uses
        for sample in _into_domain(h.delta, drafts, margin):
            ev = _evaluate_at(h, *sample)
            check = _julia_check_at(ev, dt, w, alpha, rel_tol)
            if check.skipped:
                skipped += 1
                continue
            checked += 1
            if not check.holds:
                violations += 1
            if check.rhs > 0:
                ratio = check.lhs / check.rhs
                max_ratio = ratio if max_ratio is None else max(max_ratio, ratio)
            if u_t is not None:
                res = _identity_defect(h, w, u_t, dt, ev)
                identity_max = res if identity_max is None else max(identity_max, res)
    return JuliaSweep(checked, violations, skipped, max_ratio, identity_max)


def boundary_identity_residual(
    h: NcFunctionHandle,
    t: MatrixTuple,
    w: np.ndarray,
    u_t: np.ndarray,
    z: MatrixTuple,
) -> float:
    """Residual of I - W* phi(Z) = u_T* (I_m kron (I - Delta(T)* Delta(Z))) u(Z)."""
    if z.n != t.n:
        raise DimensionError("Z must have the same matrix size as T")
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (t.n, t.n):
        raise DimensionError(f"W has shape {w.shape}, expected ({t.n}, {t.n})")
    m = h.realization.dim_E
    jn = h.realization.J * t.n
    u_t = np.asarray(u_t, dtype=np.complex128)
    if u_t.shape != (m * jn, t.n):
        raise DimensionError(f"u_T has shape {u_t.shape}, expected ({m * jn}, {t.n})")
    return _identity_defect(h, w, u_t, eval_delta(h.delta, t), evaluate(h, z))


@dataclass(frozen=True)
class TfaeReport:
    """Suprema of the four equivalent boundedness quantities along a sequence.

    The four quantities are the quotient against the Gram defect
    ||I - Delta*Delta||, the quotient against the scalar defect 1 - ||Delta||^2,
    and the squared model-vector norm twice (once for "some model vector",
    once for "every model vector"; the realization materializes exactly one
    canonical model vector, so the two coincide here).

    The comparability entries verify the chain that makes the quantities
    equivalent on a non-tangential sequence of aperture c:
    gram <= model <= scalar <= 2 c gram.
    """

    sup_gram_quotient: float
    sup_scalar_quotient: float
    sup_model_norm_sq: float
    sup_model_norm_sq_all: float
    aperture: float
    n_points: int
    comparability: dict


def tfae_report(
    h: NcFunctionHandle, seq: ApproachSequence, aperture_cap: float = APERTURE_CAP
) -> TfaeReport:
    """Evaluate the four boundedness quantities along a non-tangential sequence."""
    _, evals = _evaluate_sequence(h, seq)
    return _tfae_along(evals, eval_delta(h.delta, seq.base), aperture_cap)


def _tfae_along(evals, dt: np.ndarray, aperture_cap: float) -> TfaeReport:
    jn = dt.shape[0]
    sup_gram = sup_scalar = sup_model = 0.0
    aperture = 0.0
    for ev in evals:
        quotient = _quotient_at(ev)
        gram_defect = operator_norm(np.eye(jn) - ev.delta.conj().T @ ev.delta)
        aperture = max(aperture, operator_norm(ev.delta - dt) / quotient.denominator)
        sup_gram = max(sup_gram, quotient.numerator / gram_defect)
        sup_scalar = max(sup_scalar, quotient.value)
        sup_model = max(sup_model, operator_norm(ev.u) ** 2)
    if not np.isfinite(aperture) or aperture > aperture_cap:
        raise PreconditionError(
            f"sequence is tangential: aperture {aperture:.3e} exceeds cap {aperture_cap:.0e}"
        )
    slack = lambda v: v * (1.0 + COMPARABILITY_RTOL) + 1e-15  # noqa: E731
    comparability = {
        "gram_le_scalar": bool(sup_gram <= slack(sup_scalar)),
        "scalar_le_2c_gram": bool(sup_scalar <= slack(2.0 * aperture * sup_gram)),
        "gram_le_model": bool(sup_gram <= slack(sup_model)),
        "model_le_scalar": bool(sup_model <= slack(sup_scalar)),
        "scalar_over_gram": sup_scalar / sup_gram if sup_gram else float("inf"),
        "model_over_gram": sup_model / sup_gram if sup_gram else float("inf"),
    }
    return TfaeReport(
        sup_gram_quotient=sup_gram,
        sup_scalar_quotient=sup_scalar,
        sup_model_norm_sq=sup_model,
        sup_model_norm_sq_all=sup_model,
        aperture=aperture,
        n_points=len(evals),
        comparability=comparability,
    )


@dataclass(frozen=True)
class BPointReport:
    """Full per-point diagnostic bundle assembled by :func:`analyze_bpoint`."""

    T: MatrixTuple
    delta_norm_at_T: float
    on_distinguished_boundary: bool
    sequence_kind: str
    sequence_dropped: int
    alpha: AlphaEstimate
    boundary_value: BoundaryValue | None
    W_error: str | None
    range_test: RangeTestResult | None
    is_bpoint: bool
    julia: JuliaSweep
    tfae: TfaeReport | None


def analyze_bpoint(
    h: NcFunctionHandle,
    t: MatrixTuple,
    direction: MatrixTuple | None = None,
    num_steps: int = SEQUENCE_STEPS,
    first_step: float = SEQUENCE_FIRST_STEP,
    julia_samples: int = JULIA_SAMPLES,
    margin: float = SAMPLE_MARGIN,
    seed: int = 0,
    range_tol: float = RANGE_TOL,
    rel_tol: float = JULIA_RTOL,
) -> BPointReport:
    """Run the full boundary diagnostic suite at T, approached radially or along ``direction``.

    T must lie on the boundary; for T on the distinguished boundary the model
    machinery (boundary model vector, range test, boundedness report) runs as
    well, otherwise only the quotient, boundary value and inequality checks.
    The sampling margin of the Julia sweep must lie in (0, 1).
    """
    _check_margin(margin)
    dt = eval_delta(h.delta, t)
    delta_norm = operator_norm(dt)
    if delta_norm < 1.0 - DISTINGUISHED_TOL:
        raise PreconditionError(
            f"T is interior (||delta(T)|| = {delta_norm:.6g}); boundary analysis undefined"
        )
    if delta_norm > 1.0 + DISTINGUISHED_TOL:
        raise PreconditionError(
            f"T is outside the closed domain (||delta(T)|| = {delta_norm:.6g})"
        )
    distinguished = on_distinguished_boundary(h.delta, t)
    if direction is None:
        seq = radial_sequence(t, num_steps=num_steps, first_step=first_step)
    else:
        seq = ray_sequence(t, direction, num_steps=num_steps, first_step=first_step)

    points, evals = _evaluate_sequence(h, seq)
    alpha = _alpha_along(h, seq, points, evals)

    boundary_value = w_error = None
    try:
        boundary_value = _boundary_value_along(points.steps, evals)
    except (ConvergenceError, PreconditionError) as exc:
        w_error = str(exc)

    range_test = u_t = None
    if distinguished:
        solution = _solve_uT_at(h, dt, t.n)  # T is distinguished and dt is Delta(T)
        range_test = _range_test_with(h, t, solution, range_tol, seed)
        u_t = range_test.solution.u_T
        # the range criterion is decisive only when the boundary value of the
        # defining matrix is square unitary; zero-padded grids can pass the
        # range test while the quotient genuinely diverges, so an observed
        # divergence overrides
        is_bpoint = range_test.is_bpoint and not alpha.diverging
    else:
        is_bpoint = alpha.converged and not alpha.diverging

    julia = JuliaSweep()
    if boundary_value is not None and np.isfinite(alpha.alpha):
        rng = np.random.default_rng(seed)
        julia = _julia_sweep(
            h, rng, dt, boundary_value.W, alpha.alpha, julia_samples, margin, rel_tol, u_t
        )

    tfae = _tfae_along(evals, dt, APERTURE_CAP) if distinguished else None

    return BPointReport(
        T=t,
        delta_norm_at_T=delta_norm,
        on_distinguished_boundary=distinguished,
        sequence_kind=seq.kind,
        sequence_dropped=points.dropped,
        alpha=alpha,
        boundary_value=boundary_value,
        W_error=w_error,
        range_test=range_test,
        is_bpoint=is_bpoint,
        julia=julia,
        tfae=tfae,
    )
