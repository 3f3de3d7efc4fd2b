"""One-sided directional derivatives of bounded functions at boundary points.

At a B-point T with unitary boundary value W, the derivative in an inward
direction H is the one-sided limit of (phi(T + tH) - W) / t as t decreases to
zero.  The limit is computed on a geometric step ladder with first-order
Richardson extrapolation; holomorphy in H is not asserted, only the testable
consequences (homogeneity in H and ladder independence) are exposed.  The
scalar angular derivative <eta(K) v, W v> reads that one ladder's eta.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .boundary import SequenceEvaluation, evaluate_sequence
from .domain import GDeltaExitWarning, boundary_point, cone_matrix, in_Delta, inward_margin
from .errors import ConvergenceError, DimensionError, PreconditionError
from .freepoly import MatrixTuple
from .numerics import extrapolate_limit, operator_norm
from .realization import NcFunctionHandle

STEP_FLOOR = 1e-8  # below this, difference quotients drown in cancellation
LADDER_FIRST_STEP = 1e-2
LADDER_STEPS = 10  # ladder steps of eta_numeric and homogeneity_check
MIN_INWARD_MARGIN = 1e-10  # smallest transversality margin eta_numeric accepts
W_MIN_STEPS = 14  # fewest points of the path ncjulia derivative reads W from


@dataclass(frozen=True)
class DirectionalDerivativeResult:
    """Extrapolated derivative with its convergence diagnostics.

    ``beta`` is the transversality margin of the direction, the
    ``domain.inward_margin`` of its inward-cone matrix; ``partial`` marks
    ladders that hit the step floor before using the requested number of
    steps.
    """

    H: MatrixTuple
    eta: np.ndarray
    convergence_increments: tuple
    beta: float
    first_step: float
    steps_used: int
    partial: bool
    converged: bool


def _admissible_ladder(
    h: NcFunctionHandle, t: MatrixTuple, direction: MatrixTuple, first_step: float, steps: int
) -> SequenceEvaluation:
    """The ray sequence of the ladder, its first step halved until every point is interior.

    The first step must be finite, as :func:`eta_numeric` checks at its entry; however large
    it starts, it is halved until it falls below 4 ``STEP_FLOOR``.
    """
    t0 = first_step
    while True:
        kept = next((k for k in range(steps) if t0 * 2.0**-k < STEP_FLOOR), steps)
        if kept >= 2:
            # a dropped point only calls for a smaller first step, so it is not warned about
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", GDeltaExitWarning)
                try:
                    path = evaluate_sequence(h, t, direction, kept, t0)
                    if path.points.dropped == 0:
                        return path
                except PreconditionError:
                    pass  # no ladder point lies inside the domain
        t0 /= 2.0
        if t0 < STEP_FLOOR * 4:
            raise PreconditionError(
                "no admissible first step: points along the direction never enter the domain"
            )


def eta_numeric(
    h: NcFunctionHandle,
    t: MatrixTuple,
    w: np.ndarray,
    direction: MatrixTuple,
    steps: int = LADDER_STEPS,
    first_step: float = LADDER_FIRST_STEP,
) -> DirectionalDerivativeResult:
    """One-sided derivative of phi at the boundary point t along an inward direction.

    Requires t on the boundary and the direction strictly inward (its
    ``inward_margin`` at least ``MIN_INWARD_MARGIN``).  The first step, finite and at least
    2 ``STEP_FLOOR`` before t is evaluated, is halved until the ladder lies inside the domain.
    """
    if steps < 2:
        raise PreconditionError("need at least 2 ladder steps")
    if not 2.0 * STEP_FLOOR <= first_step < np.inf:
        floor = f"at least {2.0 * STEP_FLOOR:g}, two ladder steps"
        need = "finite and > 0" if not 0.0 < first_step < np.inf else floor
        raise PreconditionError(f"ladder first step must be {need}, got {first_step!r}")
    w = np.asarray(w, dtype=np.complex128)
    if w.shape != (t.n, t.n):
        raise DimensionError(f"W has shape {w.shape}, expected ({t.n}, {t.n})")
    if not np.isfinite(w).all():
        raise PreconditionError("W contains non-finite entries")
    bp = boundary_point(h.delta, t)
    bp.require_boundary()
    beta = inward_margin(cone_matrix(bp, direction))
    if beta < MIN_INWARD_MARGIN:
        raise PreconditionError(
            f"direction is not inward: transversality margin {beta:.3e} < {MIN_INWARD_MARGIN:.0e}"
        )
    path = _admissible_ladder(h, t, direction, first_step, steps)
    ladder = path.points.steps
    res = extrapolate_limit(ladder, (path.evaluation.phi - w) / np.array(ladder)[:, None, None])
    eta = res.value
    scale = max(1.0, operator_norm(eta))
    inc = res.increments
    # difference quotients carry roundoff of order eps/t, so increments that
    # small count as converged even if they no longer shrink
    noise_floor = 1e-8 * scale
    if len(inc) >= 2:
        converged = inc[-1] <= max(0.75 * inc[-2] + 1e-12 * scale, noise_floor)
    else:
        converged = inc[-1] <= noise_floor
    return DirectionalDerivativeResult(
        H=direction,
        eta=eta,
        convergence_increments=inc,
        beta=beta,
        first_step=ladder[0],
        steps_used=len(ladder),
        partial=len(ladder) < steps,
        converged=converged,
    )


def homogeneity_check(
    h: NcFunctionHandle,
    t: MatrixTuple,
    w: np.ndarray,
    result: DirectionalDerivativeResult,
    s: float,
) -> float:
    """Defect || eta(s H) - s eta(H) || for a scale factor s in (0, 1], on the default ladder."""
    if not 0.0 < s <= 1.0:
        raise PreconditionError("scale factor must lie in (0, 1]")
    scaled = eta_numeric(h, t, w, s * result.H)
    return operator_norm(scaled.eta - s * result.eta)


def scalar_angular_derivative(
    h: NcFunctionHandle,
    t: MatrixTuple,
    k: MatrixTuple,
    w: np.ndarray,
    v: np.ndarray | None = None,
) -> complex:
    """One-variable angular derivative <eta(K) v, W v> of the scalar slice along a transverse ray.

    f(s) = <phi(T + sK) v, W v> for a unit vector v (default e_1) has f(0) = 1,
    as W is unitary, so its one-sided derivative at 0 is <eta(K) v, W v>, with
    eta(K) the :func:`eta_numeric` ladder's.  T must lie on the boundary and K
    in the transverse inward cone; a ladder that does not converge raises
    ConvergenceError.
    """
    bp = boundary_point(h.delta, t)
    bp.require_boundary()
    if not in_Delta(bp, k):
        raise PreconditionError("direction must lie in the transverse inward cone")
    if v is None:
        v = np.zeros(t.n, dtype=np.complex128)
        v[0] = 1.0
    v = np.asarray(v, dtype=np.complex128).reshape(-1)
    if v.shape != (t.n,):
        raise DimensionError(f"v has length {v.shape[0]}, expected {t.n}")
    nrm = np.linalg.norm(v)
    if nrm == 0 or not np.isfinite(v).all():
        raise PreconditionError("v must be a finite non-zero vector")
    v = v / nrm
    res = eta_numeric(h, t, w, k)
    if not res.converged:
        inc = " -> ".join(f"{x:.3e}" for x in res.convergence_increments[-2:])
        raise ConvergenceError(f"difference quotients are not Cauchy: increments {inc}")
    wv = np.asarray(w, dtype=np.complex128) @ v
    return complex(wv.conj() @ (res.eta @ v))
