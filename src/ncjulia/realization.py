"""Transfer-function evaluation of contractive functions from a colligation.

A function of d non-commuting matrix variables, bounded by one on the domain
of a delta matrix, is encoded by an isometric block colligation

    [[A, B],       acting on  C + (E tensor C^J),   dim E = m,
     [C, D]]

with A scalar, B of shape 1 x (mJ), C of shape (mJ) x 1 and D of shape
(mJ) x (mJ).  At a point x of matrix size n the model vector solves

    [I - (D kron I_n) (I_m kron Delta(x))] u(x) = C kron I_n

and the function value is phi(x) = A I_n + (B kron I_n)(I_m kron Delta(x)) u(x),
where Delta(x) is the (Jn) x (Jn) block evaluation of the delta matrix.

Tensor layout (pinned by a unit test): E is the slowest index, then C^J,
then C^n fastest, so (e, j, i) flattens to e*J*n + j*n + i.  None of the
Kronecker factors is formed.  In this layout block column f of
(M kron I_n)(I_m kron Delta) is M[:, fJ:(f+1)J] @ Delta, with Delta viewed
as a J x (n*Jn) matrix (row index j, column index (i, k, l)) and the product
read back as an (rows(M)*n) x (Jn) matrix; C kron I_n is the broadcast
product C[:, :, None] * I_n; and u_y* (I_m kron G) has the blocks
u_y[f]* G, where u_y[f] is rows fJn:(f+1)Jn of u_y.

Batch axis: the kernels that form Delta(x), the model operators and phi
(the word evaluation ``freepoly._eval_words`` under ``eval_delta``, and
``_times_delta``, ``_model_operators`` and ``_phi_from`` here) take arrays
with leading axes before the trailing matrix axes, and so does
``_model_solution``, the one body that solves for u and forms phi.
:func:`evaluate` calls it on one point with no leading axis;
:func:`evaluate_stack` calls it once on a ``domain.PointStack``, B points
of one matrix size with their Delta(x) stacked along a leading axis of
length B: approach sequences, derivative ladders and each block of
Julia-sweep samples are evaluated so.  The colligation may be stacked
too: these kernels and :func:`identity_defect` read the blocks
A, B, C, D of a :class:`Realization` or of :class:`Colligations`, B
colligations stacked along the leading axis of their Delta(x), one per
point.  :func:`random_colligations` makes such a stack with one batched QR
and one batched isometry check, and :func:`model_identity_defects` checks
the model identity of each at its own point with one stacked solve; this
is how ``ncjulia fuzz`` runs its samples.  Every stacked product is a loop
of the same BLAS and LAPACK calls on the same matrices, so each of its
results is bit-identical to the one-point, one-colligation computation.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field
from typing import NamedTuple

import numpy as np

from .domain import DeltaMatrix, PointStack, eval_delta
from .errors import DimensionError, ParseError, PreconditionError
from .freepoly import MatrixTuple
from .numerics import (
    COND_WARN_THRESHOLD,
    as_complex_matrix,
    haar_unitaries,
    haar_unitary,
    _json_int,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    operator_norms,
)

ISOMETRY_TOL = 1e-8


class NearSingularResolventWarning(UserWarning):
    """The model system matrix is ill conditioned at the evaluation point."""


@dataclass(frozen=True, eq=False)
class Realization:
    """Isometric colligation (A, B, C, D) on C + (E tensor C^J).

    Construction fails when the stacked block matrix is farther than
    ``isometry_tol`` from an isometry; ``isometry_tol=np.inf`` builds the
    deliberately broken specimens of negative controls.
    """

    dim_E: int
    J: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    isometry_defect: float = field(init=False)
    isometry_tol: InitVar[float] = ISOMETRY_TOL

    def __post_init__(self, isometry_tol):
        if self.dim_E < 1 or self.J < 1:
            raise DimensionError("dim_E and J must be at least 1")
        mj = self.dim_E * self.J
        blocks = {
            "A": (as_complex_matrix(self.A, "A"), (1, 1)),
            "B": (as_complex_matrix(self.B, "B"), (1, mj)),
            "C": (as_complex_matrix(self.C, "C"), (mj, 1)),
            "D": (as_complex_matrix(self.D, "D"), (mj, mj)),
        }
        for name, (block, shape) in blocks.items():
            if block.shape != shape:
                raise DimensionError(
                    f"block {name} has shape {block.shape}, expected {shape}"
                )
            block = block.copy()
            block.flags.writeable = False
            object.__setattr__(self, name, block)
        defect = _isometry_defects(self.colligation[None], isometry_tol)[0]
        object.__setattr__(self, "isometry_defect", float(defect))

    @property
    def colligation(self) -> np.ndarray:
        top = np.hstack([self.A, self.B])
        bottom = np.hstack([self.C, self.D])
        return np.vstack([top, bottom])


def _isometry_defects(colligations: np.ndarray, isometry_tol: float) -> np.ndarray:
    """||M* M - I|| of each stacked colligation M; PreconditionError for the first above the tolerance."""
    gram = colligations.conj().swapaxes(-1, -2) @ colligations
    gram -= np.eye(colligations.shape[-1])  # in place: a stack gets no temporary elision
    defects = operator_norms(gram)
    for defect in defects:
        if defect > isometry_tol:
            raise PreconditionError(
                f"colligation is not an isometry: defect {defect:.3e} > {isometry_tol:.0e}"
            )
    return defects


class Colligations(NamedTuple):
    """The blocks of k colligations of one (dim_E, J), stacked along a leading axis.

    A is (k, 1, 1), B (k, 1, mJ), C (k, mJ, 1) and D (k, mJ, mJ); the model
    solve reads them as it reads a :class:`Realization`'s.
    """

    dim_E: int
    J: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray


def _blocks(colligations: np.ndarray) -> tuple:
    """Views of A, B, C, D in colligation matrices (..., 1 + mJ, 1 + mJ)."""
    m = colligations
    return m[..., :1, :1], m[..., :1, 1:], m[..., 1:, :1], m[..., 1:, 1:]


@dataclass(frozen=True, eq=False)
class NcFunctionHandle:
    """A contractive function given by a colligation over a matching domain."""

    realization: Realization
    delta: DeltaMatrix

    def __post_init__(self):
        if self.realization.J != self.delta.J:
            raise DimensionError(
                f"realization has J={self.realization.J} but delta has J={self.delta.J}"
            )


def _times_delta(r, mat: np.ndarray, big_delta: np.ndarray, n: int):
    """(mat kron I_n)(I_m kron Delta) for mat with mJ columns, without forming either factor."""
    m, j = r.dim_E, r.J
    jn = j * n
    rows = mat.shape[-2] * n
    block_columns = mat.reshape(mat.shape[:-1] + (m, j)).swapaxes(-3, -2)
    blocks = block_columns @ big_delta.reshape(big_delta.shape[:-2] + (1, j, n * jn))
    lead = blocks.shape[:-3]
    return blocks.reshape(lead + (m, rows, jn)).swapaxes(-3, -2).reshape(lead + (rows, m * jn))


def _model_operators(r, big_delta: np.ndarray, n: int):
    """Resolvent I - step, rhs C kron I_n and step (D kron I_n)(I_m kron Delta)."""
    step = _times_delta(r, r.D, big_delta, n)
    # I - step formed in place, so that a stacked step holds no broadcast copy of I beside
    # it; the diagonal of each matrix is every (size + 1)-th entry of it flattened
    size = step.shape[-1]
    resolvent = np.zeros(step.shape, dtype=np.complex128)
    resolvent.reshape(step.shape[:-2] + (-1,))[..., :: size + 1] = 1.0
    resolvent -= step
    rhs = (r.C[..., None] * np.eye(n, dtype=np.complex128)).reshape(*r.C.shape[:-2], -1, n)
    return resolvent, rhs, step


def _require_interior(norm: float) -> float:
    """The norm ||Delta(x)|| when it is below one; PreconditionError otherwise."""
    if not norm < 1.0:
        raise PreconditionError(f"point is not inside the domain: ||delta(x)|| = {norm:.6g}")
    return norm


def _phi_from(r, big_delta: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """A I_n + (B kron I_n)(I_m kron Delta) u for a model vector u."""
    b_delta = _times_delta(r, r.B, big_delta, n)
    return r.A * np.eye(n, dtype=np.complex128) + b_delta @ u


@dataclass(frozen=True, eq=False)
class PointEvaluation:
    """Padded Delta(x), its norm, the model system matrix, u(x) and phi(x) at interior x."""

    x: MatrixTuple
    delta: np.ndarray
    delta_norm: float
    resolvent: np.ndarray
    u: np.ndarray
    phi: np.ndarray


def evaluate(h: NcFunctionHandle, x: MatrixTuple) -> PointEvaluation:
    """Evaluate Delta, ||Delta||, u and phi at interior x with one model solve."""
    big_delta = eval_delta(h.delta, x)
    norm = _require_interior(operator_norm(big_delta))
    return PointEvaluation(x, big_delta, norm, *_model_solution(h.realization, big_delta, x.n))


def evaluate_stack(h: NcFunctionHandle, stack: PointStack) -> list:
    """:func:`evaluate` at each interior point of the stack, from one stacked solve."""
    _require_interior(float(stack.norms.max(initial=0.0)))
    resolvent, u, phi = _model_solution(h.realization, stack.delta, stack.components.shape[-1])
    return [
        PointEvaluation(stack.point(k), delta, float(norm), resolvent[k], u[k], phi[k])
        for k, (delta, norm) in enumerate(zip(stack.delta, stack.norms))
    ]


def _model_solution(r, big_delta: np.ndarray, n: int) -> tuple:
    """Resolvent, u and phi at Delta(x) from one solve; r and Delta(x) may be stacked alike."""
    resolvent, rhs, _ = _model_operators(r, big_delta, n)
    # a right-hand side stacked like the resolvent reads as matrices under numpy 1.x and 2.x
    u = np.linalg.solve(resolvent, np.broadcast_to(rhs, resolvent.shape[:-1] + rhs.shape[-1:]))
    return resolvent, u, _phi_from(r, big_delta, u, n)


def eval_u(h: NcFunctionHandle, x: MatrixTuple, return_cond: bool = False):
    """Model vector u(x) of shape (mJn) x n by direct solve.

    Warns when the resolvent condition number exceeds ``COND_WARN_THRESHOLD``;
    with ``return_cond=True`` returns ``(u, cond)``.
    """
    ev = evaluate(h, x)
    cond = resolvent_condition(ev)
    return (ev.u, cond) if return_cond else ev.u


def resolvent_condition(ev: PointEvaluation) -> float:
    """Condition number of the model system matrix; warns above ``COND_WARN_THRESHOLD``."""
    sv = np.linalg.svd(ev.resolvent, compute_uv=False)
    cond = float("inf") if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"model system is near singular: condition number {cond:.3e}",
            NearSingularResolventWarning,
            stacklevel=3,
        )
    return cond


def eval_phi(h: NcFunctionHandle, x: MatrixTuple) -> np.ndarray:
    """Function value phi(x) = A I_n + (B kron I_n)(I_m kron Delta(x)) u(x)."""
    return evaluate(h, x).phi


@dataclass(frozen=True)
class NeumannEvaluation:
    """Truncated geometric-series evaluation, with its a-priori error bound."""

    value: np.ndarray
    truncation_bound: float
    contraction_factor: float
    terms: int


def eval_phi_neumann(h: NcFunctionHandle, x: MatrixTuple, terms: int) -> NeumannEvaluation:
    """Evaluate phi by summing the geometric series of (D kron I)(I kron Delta).

    Independent of the direct solve in :func:`eval_phi`; usable only when the
    contraction factor q is < 1, with truncation bound q^(terms+1) / (1 - q).
    """
    if terms < 0:
        raise PreconditionError("terms must be non-negative")
    big_delta = eval_delta(h.delta, x)
    _require_interior(operator_norm(big_delta))
    n = x.n
    _, rhs, step = _model_operators(h.realization, big_delta, n)
    q = operator_norm(step)
    if q >= 1.0:
        raise PreconditionError(
            f"series does not converge: contraction factor {q:.6g} >= 1"
        )
    acc = rhs.copy()
    power = rhs
    for _ in range(terms):
        power = step @ power
        acc += power
    value = _phi_from(h.realization, big_delta, acc, n)
    bound = q ** (terms + 1) / (1.0 - q)
    return NeumannEvaluation(
        value=value, truncation_bound=float(bound), contraction_factor=float(q), terms=terms
    )


def model_residual(h: NcFunctionHandle, x: MatrixTuple, y: MatrixTuple) -> float:
    """Defect of the model identity at the pair (x, y).

    Measures || I - phi(y)* phi(x) - u(y)* (I_m kron (I - Delta(y)* Delta(x))) u(x) ||;
    of order the isometry defect for valid colligations.
    """
    if x.n != y.n or x.d != y.d:
        raise DimensionError("x and y must share matrix size and variable count")
    ev_x = evaluate(h, x)
    ev_y = ev_x if y is x else evaluate(h, y)
    return identity_defect(
        h.realization, (ev_y.phi, ev_y.u, ev_y.delta), (ev_x.phi, ev_x.u, ev_x.delta)
    )


def model_identity_defects(c: Colligations, big_delta: np.ndarray) -> np.ndarray:
    """``model_residual(h, x, x)`` for each stacked colligation at its own interior x.

    ``big_delta`` stacks the padded Delta(x) of the points as ``c`` stacks
    the colligations; one stacked solve serves them all.
    """
    _, u, phi = _model_solution(c, big_delta, big_delta.shape[-1] // c.J)
    at_x = (phi, u, big_delta)
    return identity_defect(c, at_x, at_x)


def identity_defect(r, y: tuple, x: tuple):
    """|| I - phi_y* phi_x - u_y* (I_m kron (I - delta_y* delta_x)) u_x ||.

    ``y`` and ``x`` are (phi, u, Delta) triples: the model identity when y is
    an evaluated interior point, the boundary identity when y is
    (W, u_T, Delta(T)).  A float for one colligation r; an array of defects
    for colligations and x stacked alike.
    """
    phi_y, u_y, delta_y = y
    phi_x, u_x, delta_x = x
    n = phi_x.shape[-1]
    m, jn = r.dim_E, r.J * n
    lead = u_y.shape[:-2]
    gram = np.eye(jn, dtype=np.complex128) - delta_y.conj().swapaxes(-1, -2) @ delta_x
    left = u_y.reshape(*lead, m, jn, n).conj().swapaxes(-1, -2) @ gram[..., None, :, :]
    left = left.swapaxes(-3, -2).reshape(*lead, n, m * jn)
    lhs = np.eye(n, dtype=np.complex128) - phi_y.conj().swapaxes(-1, -2) @ phi_x
    residual = lhs - left @ u_x
    return operator_norm(residual) if residual.ndim == 2 else operator_norms(residual)


def random_realization(dim_E: int, J: int, seed: int) -> Realization:
    """Haar-style random unitary colligation: QR of a complex Gaussian."""
    if dim_E < 1 or J < 1:
        raise DimensionError("dim_E and J must be at least 1")
    q = haar_unitary(1 + dim_E * J, np.random.default_rng(seed))
    return Realization(dim_E, J, *_blocks(q))


def random_colligations(dim_E: int, J: int, seeds) -> Colligations:
    """The colligation of ``random_realization(dim_E, J, seed)`` for each seed, stacked.

    Each seed takes the draws of :func:`random_realization`; one batched QR
    makes the colligations and one batched check, :class:`Realization`'s,
    holds them to ``ISOMETRY_TOL``.
    """
    if dim_E < 1 or J < 1:
        raise DimensionError("dim_E and J must be at least 1")
    q = haar_unitaries(1 + dim_E * J, [np.random.default_rng(seed) for seed in seeds])
    _isometry_defects(q, ISOMETRY_TOL)
    return Colligations(dim_E, J, *map(np.ascontiguousarray, _blocks(q)))


def perturb_realization(r: Realization, eps: float, seed: int = 0) -> Realization:
    """Break the isometry by adding a Gaussian perturbation to D (negative control)."""
    g = _perturbations(r.dim_E * r.J, eps, [seed])[0]
    return Realization(
        dim_E=r.dim_E, J=r.J, A=r.A, B=r.B, C=r.C, D=r.D + g, isometry_tol=np.inf
    )


def perturb_colligations(c: Colligations, eps: float, seeds) -> Colligations:
    """:func:`perturb_realization` of each stacked colligation, with its seed."""
    return c._replace(D=c.D + _perturbations(c.dim_E * c.J, eps, seeds))


def _perturbations(mj: int, eps: float, seeds) -> np.ndarray:
    """The mj x mj complex Gaussian from each seed's generator, scaled to norm at most eps."""
    g = np.stack([np.random.default_rng(seed).standard_normal((2, mj, mj)) for seed in seeds])
    g = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    g *= (eps / np.maximum(1.0, operator_norms(g)))[:, None, None]
    return g


# --- JSON wire format -------------------------------------------------------


def realization_to_json(r: Realization) -> dict:
    return {
        "dim_E": r.dim_E,
        "J": r.J,
        "A": matrix_to_json(r.A),
        "B": matrix_to_json(r.B),
        "C": matrix_to_json(r.C),
        "D": matrix_to_json(r.D),
    }


def realization_from_json(obj, isometry_tol: float = ISOMETRY_TOL) -> Realization:
    """Decode and validate; non-isometric colligations are rejected, not repaired.

    Shape problems are parse errors; a well-formed but non-isometric
    colligation is a precondition violation.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"expected a realization object, got {type(obj).__name__}")
    try:
        dim_e = _json_int(obj["dim_E"], "realization dim_E", 1)
        j = _json_int(obj["J"], "realization J", 1)
        blocks = {name: matrix_from_json(obj[name]) for name in ("A", "B", "C", "D")}
    except KeyError as exc:
        raise ParseError(f"realization object missing field: {exc}") from None
    try:
        return Realization(dim_E=dim_e, J=j, isometry_tol=isometry_tol, **blocks)
    except DimensionError as exc:
        raise ParseError(str(exc)) from None
