"""Boundary-point analysis: Julia quotients, boundary values, model limits.

A boundary point T is a B-point for the function phi when the quotient

    || I - phi(Z)* phi(Z) || / (1 - ||Delta(Z)||^2)

stays bounded along some sequence of interior points approaching T.  At such
points phi has a unitary boundary value W, the model vector has a limit u_T
solving a consistent singular system (one :func:`boundary_model`, which the
range test, the boundary identity, the report and, where the system is
regular, W read), and a boundary Schwarz-Pick inequality holds on the whole
domain.  This module estimates all of these numerically and verifies the
identities they satisfy, squaring each norm as a product at a point and a
stack alike.  Each diagnostic takes evaluations made once by
``realization.evaluate``, :func:`evaluate_sequence` or
``domain.boundary_point``.  Every approach path is one
:func:`evaluate_sequence` call, checked there once by
``domain.generate_sequence``; every Julia sweep draws its own interior
points, one solve block at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import (
    BoundaryPoint,
    boundary_point,
    find_transverse_direction,
    gaussian_drafts,
    generate_sequence,
    InwardWitnessResult,
    scale_into_domain,
    SequencePoints,
    SAMPLE_MARGIN,
    SEQUENCE_FIRST_STEP,
)
from .errors import ConvergenceError, DimensionError, PreconditionError, SingularMatrixError
from .freepoly import MatrixTuple
from .numerics import (
    PINV_RTOL,
    extrapolate_limit,
    nearest_unitary,
    operator_norm,
)
from .realization import ISOMETRY_TOL, Evaluation, NcFunctionHandle, model_operators
from .realization import evaluate_stack, identity_defect, phi_from, solve_rows
# unused here; perfbench's test_tracer_restores_every_binding reads boundary.eval_phi
from .realization import eval_phi  # noqa: F401

CONVERGENCE_RTOL = 1e-3
UNITARY_DISTANCE_TOL = 1e-4
APERTURE_CAP = 1e6
COMPARABILITY_RTOL = 1e-8
DEGENERATE_TOL = 1e-12
RANGE_TOL = 1e-8  # largest range-test residual of a B-point
JULIA_RTOL = 1e-8  # relative slack of the Julia inequality
SEQUENCE_STEPS = 12  # points of analyze_bpoint's approach sequence
JULIA_SAMPLES = 100  # interior points of analyze_bpoint's Julia sweep
SEED = 2024  # seed of analyze_bpoint's Julia sweep; the witness search draws nothing


@dataclass(frozen=True)
class JuliaQuotient:
    """The boundedness quotient at one interior point, with its two parts; arrays for a stack."""

    value: float
    numerator: float
    denominator: float


def julia_quotient(ev: Evaluation) -> JuliaQuotient:
    """Quotient || I - phi(Z)* phi(Z) || / (1 - ||Delta(Z)||^2) at the evaluated interior Z.

    Floats for one evaluated point; for a stack, arrays over its rows.
    """
    defect = np.eye(ev.phi.shape[-1]) - ev.phi.conj().swapaxes(-1, -2) @ ev.phi
    numerator, norm = operator_norm(defect), ev.delta_norm
    denominator = 1.0 - norm * norm
    return JuliaQuotient(
        value=numerator / denominator, numerator=numerator, denominator=denominator
    )


@dataclass(frozen=True, eq=False)
class SequenceEvaluation:
    """The interior points of an approach sequence; they are evaluated on first read."""

    h: NcFunctionHandle
    points: SequencePoints

    @cached_property
    def evaluation(self) -> Evaluation:
        """The interior points, evaluated by one stacked solve."""
        return evaluate_stack(self.h, self.points.stack)

    @cached_property
    def quotients(self) -> JuliaQuotient:
        """The Julia quotients of the points, as arrays over them, computed on first read."""
        return julia_quotient(self.evaluation)


def evaluate_sequence(
    h: NcFunctionHandle, t: MatrixTuple, direction: MatrixTuple | None, num_steps: int,
    first_step: float,
) -> SequenceEvaluation:
    """The path of ``domain.generate_sequence``; ``evaluation`` solves its points on first read."""
    return SequenceEvaluation(h, generate_sequence(h.delta, t, direction, num_steps, first_step))


@dataclass(frozen=True)
class AlphaEstimate:
    """Extrapolated limit of the quotient along an approach sequence.

    ``is_liminf`` is set for radial sequences over grids homogeneous of
    degree one, where the radial limit equals the unrestricted liminf; for
    any other sequence the value is only a sequence-wise estimate.
    """

    alpha: float
    increments: tuple
    converged: bool
    diverging: bool
    is_liminf: bool


def estimate_alpha(path: SequenceEvaluation) -> AlphaEstimate:
    """Estimate the quotient limit along the sequence by Richardson extrapolation."""
    quotients = path.quotients.value.tolist()
    is_liminf = path.points.kind == "radial" and path.h.delta.is_homogeneous_degree_one()

    # bounded quotients may approach their limit from below, so growth alone
    # is not divergence; divergence means significant increments that fail to
    # decay (geometric steps make converging increments shrink by about half)
    diverging = False
    if len(quotients) >= 3:
        d_prev = quotients[-2] - quotients[-3]
        d_last = quotients[-1] - quotients[-2]
        significant = d_last > 1e-6 * max(1.0, abs(quotients[-1]))
        diverging = significant and d_prev > 0 and d_last >= 0.9 * d_prev
    alpha, increments, converged = float("inf"), (), False
    if not diverging:
        res = extrapolate_limit(path.points.steps, path.quotients.value)
        alpha = float(np.real(res.value.reshape(())))
        increments = res.increments
        last_increment = increments[-1] if increments else 0.0
        converged = last_increment <= CONVERGENCE_RTOL * max(1.0, abs(alpha))
    return AlphaEstimate(
        alpha=alpha,
        increments=increments,
        converged=converged,
        diverging=diverging,
        is_liminf=is_liminf and not diverging,
    )


@dataclass(frozen=True)
class BoundaryValue:
    """Unitary boundary value extracted from an approach sequence."""

    W: np.ndarray
    unitary_distance: float  # spectral distance from the raw limit to W


def extract_W(path: SequenceEvaluation) -> BoundaryValue:
    """Extrapolate phi along the sequence and project onto the unitary group.

    A raw limit farther than ``UNITARY_DISTANCE_TOL`` from unitary is treated
    as evidence that the base point is not a B-point.
    """
    raw = extrapolate_limit(path.points.steps, path.evaluation.phi).value
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


@dataclass(frozen=True)
class BoundaryModel:
    """The boundary model system R0 u = C kron I at T, solved from one SVD of R0.

    ``u_T`` is its minimum-norm solution; ``range_residual`` is the norm of the
    unsolved part (zero exactly when the right-hand side lies in the range,
    which is the B-point criterion); ``kernel_orthogonality`` measures the
    component of the solution inside the system kernel; ``kernel_defect``
    measures how far kernel and co-kernel are from coinciding, which flags
    colligations that are not isometric.  ``regular`` is set when the SVD
    found no kernel: R0 is invertible, and u(Z) tends to u_T along every
    approach to T.
    """

    h: NcFunctionHandle
    point: BoundaryPoint
    u_T: np.ndarray
    range_residual: float
    kernel_orthogonality: float
    kernel_defect: float
    regular: bool

    @property
    def alpha_model(self) -> float:
        """||u_T||^2, the squared norm of the model vector at T."""
        norm = operator_norm(self.u_T)
        return norm * norm

    @cached_property
    def W(self) -> np.ndarray:
        """phi's boundary value A I + (B kron I)(I kron Delta(T)) u_T at a regular model."""
        if not self.regular:
            raise PreconditionError("the boundary model is singular at T: W is not u_T's")
        return phi_from(self.h.realization, self.point.delta, self.u_T, self.point.t.n)


def boundary_model(h: NcFunctionHandle, bp: BoundaryPoint) -> BoundaryModel:
    """The model at T: one SVD of the boundary system gives u_T, its residual and kernels."""
    if not bp.distinguished:
        raise PreconditionError(
            "model vector at the boundary requires T on the distinguished boundary"
        )
    resolvent, rhs, _ = model_operators(h.realization, bp.delta, bp.t.n)
    u, s, vh = np.linalg.svd(resolvent)
    if s[0] <= PINV_RTOL:  # zero but for the rounding of Delta(T): all of it is kernel
        resolvent, s = np.zeros_like(resolvent), np.zeros_like(s)
        kernel = cokernel = np.eye(len(s))
    else:
        mask = s <= PINV_RTOL * s[0] * len(s) ** 0.5
        kernel, cokernel = vh.conj().T[:, mask], u[:, mask]
    # min_norm_solve's solution, term for term as numpy's pinv forms it
    s_plus = np.divide(1, s, where=s > PINV_RTOL * s[0], out=np.zeros_like(s))
    u_t = vh.conj().T @ (s_plus[:, None] * u.conj().T) @ rhs
    orthogonality = defect = 0.0
    if kernel.shape[1]:
        orthogonality = operator_norm(kernel.conj().T @ u_t)
        defect = operator_norm(kernel @ kernel.conj().T - cokernel @ cokernel.conj().T)
    residual = operator_norm(resolvent @ u_t - rhs)
    return BoundaryModel(h, bp, u_t, residual, orthogonality, defect, not kernel.shape[1])


@dataclass(frozen=True)
class RangeTestResult:
    """Verdict of the range-membership B-point test, read from the boundary model at T.

    The range criterion is decisive under two hypotheses: a transverse inward
    direction exists at T, and the colligation is an isometry.
    ``conditional`` marks a verdict issued without confirming both: no
    transverse inward witness exists (``inward_witness`` holds a
    certificate), the witness search was undecided (its iteration cap ran
    out), or the colligation's isometry defect exceeds ``ISOMETRY_TOL``.
    """

    model: BoundaryModel
    inward_witness: InwardWitnessResult

    @property
    def is_bpoint(self) -> bool:
        """The boundary system is consistent: its residual is at most ``RANGE_TOL``."""
        return self.model.range_residual <= RANGE_TOL

    @property
    def conditional(self) -> bool:
        """No transverse inward witness was found, or the colligation is not an isometry."""
        defect = self.model.h.realization.isometry_defect
        return not self.inward_witness.found or defect > ISOMETRY_TOL


def is_bpoint_range_test(h: NcFunctionHandle, bp: BoundaryPoint) -> RangeTestResult:
    """B-point iff the boundary system is consistent: residual <= ``RANGE_TOL``."""
    return RangeTestResult(boundary_model(h, bp), find_transverse_direction(bp))


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
    ev: Evaluation, bp: BoundaryPoint, w: np.ndarray, alpha: float
) -> JuliaCheck:
    """Check ||phi(Z)-W||^2 / ||I-phi*phi|| <= alpha ||I-Delta(T)*Delta(Z)||^2 / (1-||Delta(Z)||^2).

    ``holds`` allows the right-hand side the relative slack ``JULIA_RTOL``; alpha must be finite.
    """
    w = _boundary_data(bp, w, alpha)
    if ev.phi.ndim != 2:
        raise DimensionError("the Julia inequality is checked at one point, not at a stack")
    if ev.phi.shape[-1] != bp.t.n:
        raise DimensionError("Z must have the same matrix size as T")
    quotient = julia_quotient(ev)
    gram = operator_norm(np.eye(bp.delta.shape[0]) - bp.delta.conj().T @ ev.delta)
    rhs = alpha * (gram * gram) / quotient.denominator
    if quotient.numerator <= DEGENERATE_TOL:
        return JuliaCheck(lhs=None, rhs=rhs, holds=None, skipped=True)
    distance = operator_norm(ev.phi - w)
    lhs = distance * distance / quotient.numerator
    return JuliaCheck(
        lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs * (1.0 + JULIA_RTOL) + 1e-15), skipped=False
    )


@dataclass(frozen=True)
class JuliaSweep:
    """Julia-inequality tallies; ``identity_max`` is tracked only when a model is given."""

    checked: int = 0
    violations: int = 0
    skipped: int = 0
    max_ratio: float | None = None
    identity_max: float | None = None


def julia_sweep(h, rng, count, bp, w, alpha, model=None) -> JuliaSweep:
    """Check the inequality at ``count`` random interior points, drawn from ``rng``.

    The points are drawn and solved in blocks of ``realization.solve_rows``
    rows, the last one shorter: one ``domain.gaussian_drafts`` call, one
    ``domain.scale_into_domain`` at ``SAMPLE_MARGIN`` and one
    :func:`evaluate_stack` call a block, so u and phi are held for one block
    at a time.  Each row is checked on its own; with the :func:`boundary_model`
    of h at T given, the boundary identity is checked once per block and its
    residuals at the rows not skipped are folded in row order.  Each point is
    the one ``random_interior_point`` would draw next, so the block size
    changes no tally.  A model of another handle or point is refused before
    anything is drawn.
    """
    _boundary_data(bp, w, alpha)
    _require_count(count)
    if model is not None and not (model.h is h and model.point is bp):
        raise PreconditionError("the boundary model is not the one of this handle at this T")
    checked = violations = skipped = 0
    max_ratio = identity_max = None
    rows = solve_rows(h.delta, h.realization.dim_E, bp.t.n)
    for start in range(0, count, rows):
        drafts = gaussian_drafts(h.delta.d, bp.t.n, rng, min(rows, count - start))
        evaluation = evaluate_stack(h, scale_into_domain(h.delta, drafts, SAMPLE_MARGIN))
        kept = []
        for k in range(len(evaluation.delta_norm)):
            check = julia_inequality_check(evaluation.row(k), bp, w, alpha)
            if check.skipped:
                skipped += 1
                continue
            checked += 1
            kept.append(k)
            if not check.holds:
                violations += 1
            if check.rhs > 0:
                ratio = check.lhs / check.rhs
                max_ratio = ratio if max_ratio is None else max(max_ratio, ratio)
        if model is not None and kept:
            residuals = boundary_identity_residual(model, w, evaluation).tolist()
            for k in kept:
                res = residuals[k]
                identity_max = res if identity_max is None else max(identity_max, res)
    return JuliaSweep(checked, violations, skipped, max_ratio, identity_max)


def _require_count(count: int) -> None:
    if count < 0:
        raise PreconditionError(f"sample count must be at least 0, got {count!r}")


def _boundary_data(bp: BoundaryPoint, w, alpha: float = 0.0) -> np.ndarray:
    """W as a complex array, refused unless n x n for T; an alpha given must be finite."""
    n, w = bp.t.n, np.asarray(w, dtype=np.complex128)
    if w.shape != (n, n):
        raise DimensionError(f"W has shape {w.shape}, expected {(n, n)}")
    if not abs(alpha) < np.inf:
        raise PreconditionError(f"alpha must be finite, got {alpha!r}")
    return w


def boundary_identity_residual(
    model: BoundaryModel, w: np.ndarray, ev: Evaluation
) -> float | np.ndarray:
    """Residual of I - W* phi(Z) = u_T* (I_m kron (I - Delta(T)* Delta(Z))) u(Z).

    T and u_T are the model's.  A float for one evaluated point; for a stack,
    an array over its rows from one stacked :func:`identity_defect`, each row
    bit-identical to its one-point residual.
    """
    bp = model.point
    w = _boundary_data(bp, w)
    if ev.phi.shape[-1] != bp.t.n:
        raise DimensionError("Z must have the same matrix size as T")
    return identity_defect(model.h.realization, (w, model.u_T, bp.delta), (ev.phi, ev.u, ev.delta))


@dataclass(frozen=True)
class TfaeReport:
    """Suprema of the four equivalent boundedness quantities along a sequence.

    The four quantities are the quotient against the Gram defect
    ||I - Delta*Delta||, the quotient against the scalar defect 1 - ||Delta||^2,
    and the squared model-vector norm, for "some model vector" and for "every
    model vector" alike: the realization materializes exactly one canonical
    model vector, so ``sup_model_norm_sq`` is both.

    The comparability entries verify the chain that makes the quantities
    equivalent on a non-tangential sequence of aperture c:
    gram <= model <= scalar <= 2 c gram.
    """

    sup_gram_quotient: float
    sup_scalar_quotient: float
    sup_model_norm_sq: float
    aperture: float
    comparability: dict


def tfae_report(path: SequenceEvaluation, bp: BoundaryPoint) -> TfaeReport:
    """Evaluate the four boundedness quantities along a non-tangential sequence to T.

    A sequence whose aperture exceeds ``APERTURE_CAP`` is tangential and raises.
    """
    if path.points.base.n != bp.t.n:
        raise DimensionError("the sequence and T must have the same matrix size")
    ev, quotient = path.evaluation, path.quotients
    gram = np.eye(bp.delta.shape[0]) - ev.delta.conj().swapaxes(-1, -2) @ ev.delta
    sup = lambda values: max(0.0, float(values.max()))  # noqa: E731
    aperture = sup(operator_norm(ev.delta - bp.delta) / quotient.denominator)
    sup_gram = sup(quotient.numerator / operator_norm(gram))
    sup_scalar = sup(quotient.value)
    largest = sup(operator_norm(ev.u))
    sup_model = largest * largest
    if not np.isfinite(aperture) or aperture > APERTURE_CAP:
        raise PreconditionError(
            f"sequence is tangential: aperture {aperture:.3e} exceeds cap {APERTURE_CAP:.0e}"
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
        aperture=aperture,
        comparability=comparability,
    )


@dataclass(frozen=True)
class BPointReport:
    """Full per-point diagnostic bundle assembled by :func:`analyze_bpoint`."""

    point: BoundaryPoint
    path: SequenceEvaluation
    alpha: AlphaEstimate
    boundary_value: BoundaryValue | None
    W_error: str | None
    range_test: RangeTestResult | None
    julia: JuliaSweep
    tfae: TfaeReport | None

    @property
    def is_bpoint(self) -> bool:
        """The range test's verdict where it ran, else ``alpha.converged``; never if diverging.

        Zero-padded grids can pass the range test while the quotient genuinely
        diverges, so an observed divergence overrides it.
        """
        verdict = self.alpha.converged if self.range_test is None else self.range_test.is_bpoint
        return verdict and not self.alpha.diverging


def analyze_bpoint(
    h: NcFunctionHandle,
    t: MatrixTuple,
    direction: MatrixTuple | None = None,
    num_steps: int = SEQUENCE_STEPS,
    julia_samples: int = JULIA_SAMPLES,
    seed: int = SEED,
) -> BPointReport:
    """Run the full boundary diagnostic suite at T, approached radially or along ``direction``.

    The path has ``num_steps`` steps, the first ``SEQUENCE_FIRST_STEP``.  T must
    lie on the boundary; for T on the distinguished boundary the model machinery
    (boundary model, range test, boundedness report) runs as well,
    otherwise only the quotient, boundary value and inequality checks.
    The inequality is swept by :func:`julia_sweep` at ``julia_samples`` points
    drawn from ``np.random.default_rng(seed)``; a negative count is refused
    before anything is evaluated.
    """
    _require_count(julia_samples)
    bp = boundary_point(h.delta, t)
    bp.require_boundary()
    path = evaluate_sequence(h, t, direction, num_steps, SEQUENCE_FIRST_STEP)
    alpha = estimate_alpha(path)

    boundary_value = w_error = None
    try:
        boundary_value = extract_W(path)
    except PreconditionError as exc:  # ConvergenceError subclasses it
        w_error = str(exc)

    range_test = model = tfae = None
    if bp.distinguished:
        range_test, tfae = is_bpoint_range_test(h, bp), tfae_report(path, bp)
        model = range_test.model

    julia = JuliaSweep()
    if boundary_value is not None and np.isfinite(alpha.alpha):
        rng = np.random.default_rng(seed)
        julia = julia_sweep(h, rng, julia_samples, bp, boundary_value.W, alpha.alpha, model)

    return BPointReport(
        point=bp,
        path=path,
        alpha=alpha,
        boundary_value=boundary_value,
        W_error=w_error,
        range_test=range_test,
        julia=julia,
        tfae=tfae,
    )
