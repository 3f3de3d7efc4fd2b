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

Active and padding unknowns: a grid of c < J columns (a column grid, such
as ``ball:d``) pads Delta(x) with J - c zero block columns, so the step
(D kron I_n)(I_m kron Delta) is zero in every column (e, j, i) with j >= c.
Ordered with the a = m*c*n active unknowns (j < c) first, the model system
is [[X, 0], [Y, I]]: ``_model_solution`` forms only the step's active
columns, from the (Jn) x (cn) view of Delta's non-zero block columns, solves
X u_a = rhs_a and reads off the padding unknowns as rhs_rest - Y u_a; phi is
formed at the padded Delta.  :func:`resolvent_condition` takes the SVD of
[[X, 0], [T, I]] with Y = Q T where that is the smaller matrix.  A square or
row grid (c = J) has no padding unknowns and runs the whole system.  The
Evaluation's Delta stays padded, as do ``identity_defect``, the boundary
solve and ||Delta(x)||.

Batch axis: the kernels that form Delta(x), the model operators and phi
(the word evaluation ``freepoly.eval_words`` under ``eval_delta``, and
``_times_delta``, ``model_operators`` and ``_phi_from`` here) take arrays
with leading axes before the trailing matrix axes, and so does
``_model_solution``, the one body that solves for u and forms phi.
:func:`evaluate` calls it on one point with no leading axis, and
:func:`evaluate_stack` on a ``domain.PointStack``: B points of one matrix
size, their Delta(x) stacked along a leading axis that the returned
:class:`Evaluation` keeps.  It solves :func:`solve_rows` rows at a time, so
no solve holds more model systems than ``domain.BLOCK_BYTES`` and no
evaluation keeps one.  A stacked :class:`Realization`, one colligation per
point, is sliced with the points; ``ncjulia fuzz`` checks its samples so.
Every stacked product loops over the same BLAS and LAPACK calls on the same
matrices, so each result is bit-identical to the one-point computation.

One point is evaluated once however many one-point functions read it:
:func:`evaluate` keeps its last evaluation (``functools.lru_cache`` of one
entry) and returns it to the next positional call with the same handle and
point objects, which hash by identity, so :func:`eval_u`, :func:`eval_phi`
and :func:`model_residual` at one point share one model solve and, through the
kept ``domain.boundary_point``, one Delta(x) and one norm.  A one-point
evaluation's arrays are therefore read-only.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .domain import DeltaMatrix, PointStack, block_rows, boundary_point, eval_delta
from .errors import DimensionError, ParseError, PreconditionError, SingularMatrixError
from .freepoly import MatrixTuple
from .numerics import (
    COND_WARN_THRESHOLD,
    haar_unitaries,
    haar_unitary,
    json_int,
    matrix_from_json,
    matrix_to_json,
    operator_norm,
    read_only,
)

ISOMETRY_TOL = 1e-8


class NearSingularResolventWarning(UserWarning):
    """The model system matrix is ill conditioned at the evaluation point."""


@dataclass(frozen=True, eq=False)
class Realization:
    """Isometric colligation (A, B, C, D) on C + (E tensor C^J).

    The blocks may carry one leading axis, k colligations stacked: A (k, 1, 1),
    B (k, 1, mJ), C (k, mJ, 1), D (k, mJ, mJ), and ``isometry_defect`` (k,).
    Construction fails at the first colligation farther than ``isometry_tol``
    from an isometry; ``isometry_tol=np.inf`` builds the deliberately broken
    specimens of negative controls.  A stack is taken only by
    :func:`evaluate_stack`, at one point per colligation, and
    :func:`identity_defect`; the one-point functions refuse it (DimensionError).
    """

    dim_E: int
    J: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    isometry_defect: float | np.ndarray = field(init=False)
    isometry_tol: InitVar[float] = ISOMETRY_TOL

    def __post_init__(self, isometry_tol):
        if self.dim_E < 1 or self.J < 1:
            raise DimensionError("dim_E and J must be at least 1")
        mj = self.dim_E * self.J
        lead = np.shape(self.A)[:1] if np.ndim(self.A) == 3 else ()
        for name, shape in (("A", (1, 1)), ("B", (1, mj)), ("C", (mj, 1)), ("D", (mj, mj))):
            block = np.array(getattr(self, name), np.complex128)
            if block.shape != lead + shape:
                raise DimensionError(f"block {name} has shape {block.shape}, expected {lead + shape}")
            block.flags.writeable = False
            object.__setattr__(self, name, block)
        m = self.colligation.reshape(-1, 1 + mj, 1 + mj)
        with np.errstate(invalid="ignore", over="ignore"):  # the norm refuses non-finite entries
            gram = m.conj().swapaxes(-1, -2) @ m
            gram -= np.eye(m.shape[-1])  # in place: a stack gets no temporary elision
        defects = operator_norm(gram)
        for defect in defects:
            if defect > isometry_tol:
                raise PreconditionError(
                    f"colligation is not an isometry: defect {defect:.3e} > {isometry_tol:.0e}"
                )
        object.__setattr__(self, "isometry_defect", defects if lead else float(defects[0]))

    @property
    def colligation(self) -> np.ndarray:
        top = np.concatenate([self.A, self.B], axis=-1)
        bottom = np.concatenate([self.C, self.D], axis=-1)
        return np.concatenate([top, bottom], axis=-2)


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
    """(mat kron I_n)(I_m kron Delta) for mat with mJ columns, without forming either factor.

    On the (Jn) x (cn) view of Delta's first c block columns it is that product's
    columns (e, k, l) with k < c, in the layout's order.
    """
    m, j = r.dim_E, r.J
    cn = big_delta.shape[-1]
    rows = mat.shape[-2] * n
    block_columns = mat.reshape(mat.shape[:-1] + (m, j)).swapaxes(-3, -2)
    blocks = block_columns @ big_delta.reshape(big_delta.shape[:-2] + (1, j, n * cn))
    lead = blocks.shape[:-3]
    return blocks.reshape(lead + (m, rows, cn)).swapaxes(-3, -2).reshape(lead + (rows, m * cn))


def model_operators(r, big_delta: np.ndarray, n: int):
    """Resolvent I - step, rhs C kron I_n and step (D kron I_n)(I_m kron Delta).

    On the padded Delta these are the whole model system.  On the (Jn) x (cn)
    view of Delta's first c block columns, the resolvent and the step are
    their columns (e, k < c, l), the active ones: the step's other columns are
    zero and the resolvent's are the identity's.
    """
    if r.D.ndim == 3 and big_delta.shape[:-2] != r.D.shape[:1]:
        raise DimensionError(f"{len(r.D)} stacked colligations need a stack of as many points")
    step = _times_delta(r, r.D, big_delta, n)
    # I - step formed in place, so that a stacked step holds no broadcast copy of I beside
    # it; active column (e, p), p < cn, holds the identity's one in row (e, p), which is
    # entry e*cn + p*(a + 1) of row block e flattened
    m, cn, a = r.dim_E, big_delta.shape[-1], step.shape[-1]
    resolvent = np.zeros(step.shape, dtype=np.complex128)
    row_blocks = resolvent.reshape(step.shape[:-2] + (m, -1))
    for e in range(m):
        row_blocks[..., e, e * cn : e * cn + cn * (a + 1) : a + 1] = 1.0
    resolvent -= step
    rhs = (r.C[..., None] * np.eye(n, dtype=np.complex128)).reshape(*r.C.shape[:-2], -1, n)
    return resolvent, rhs, step


def _split_rows(r, mat: np.ndarray, cn: int) -> tuple:
    """Rows (e, k < c, l) of an (mJn)-row matrix as one matrix; the rest as m blocks of (J - c)n."""
    blocks = mat.reshape(mat.shape[:-2] + (r.dim_E, -1, mat.shape[-1]))
    active = blocks[..., :cn, :]
    return active.reshape(mat.shape[:-2] + (-1, mat.shape[-1])), blocks[..., cn:, :]


def _nonzero_columns(delta: DeltaMatrix, big_delta: np.ndarray, n: int) -> np.ndarray:
    """The (Jn) x (cn) view of a padded Delta(x) on the c block columns of the grid as given."""
    return big_delta[..., : len(delta.entries[0]) * n]


def _require_interior(norm: float) -> None:
    """PreconditionError unless the norm ||Delta(x)|| is below one."""
    if not norm < 1.0:
        raise PreconditionError(f"point is not inside the domain: ||delta(x)|| = {norm:.6g}")


def _phi_from(r, big_delta: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """A I_n + (B kron I_n)(I_m kron Delta) u for a model vector u.

    A column view of Delta gets its zero columns back first, so that phi
    rounds as it does at the padded Delta.
    """
    if big_delta.shape[-1] < r.J * n:
        padded = np.zeros(big_delta.shape[:-1] + (r.J * n,), dtype=np.complex128)
        padded[..., : big_delta.shape[-1]] = big_delta
        big_delta = padded
    b_delta = _times_delta(r, r.B, big_delta, n)
    return r.A * np.eye(n, dtype=np.complex128) + b_delta @ u


@dataclass(frozen=True, eq=False)
class Evaluation:
    """Padded Delta(x), its norm, u(x) and phi(x) at interior x.

    At a stack of points every field has a leading row axis, ``delta_norm``
    too; :meth:`row` is one row as a one-point evaluation.
    """

    delta: np.ndarray
    delta_norm: float | np.ndarray
    u: np.ndarray
    phi: np.ndarray

    def row(self, k: int) -> Evaluation:
        """Row k of a stack, made of views; its norm is a Python float, as at one point."""
        return Evaluation(self.delta[k], float(self.delta_norm[k]), self.u[k], self.phi[k])


@functools.lru_cache(maxsize=1)
def evaluate(h: NcFunctionHandle, x: MatrixTuple) -> Evaluation:
    """Evaluate Delta, ||Delta||, u and phi at interior x with one model solve.

    Delta(x) and its norm are the kept ``domain.boundary_point(h.delta, x)``'s.
    The last evaluation is kept: called again by position with the same
    handle and point objects, as :func:`eval_u`, :func:`eval_phi` and
    :func:`model_residual` are at one point, it returns that evaluation,
    whose arrays are read-only.  A keyword call is evaluated afresh.
    """
    bp = boundary_point(h.delta, x)
    _require_interior(bp.delta_norm)
    u, phi = _model_solution(h.realization, _nonzero_columns(h.delta, bp.delta, x.n), x.n)
    return Evaluation(bp.delta, bp.delta_norm, read_only(u), read_only(phi))


def evaluate_stack(h: NcFunctionHandle, stack: PointStack) -> Evaluation:
    """:func:`evaluate` at each point of the stack, at colligation k for point k when stacked."""
    _require_interior(float(stack.norms.max(initial=0.0)))
    r, n = h.realization, stack.components.shape[-1]
    if r.D.ndim == 3 and len(r.D) != len(stack.norms):  # checked before the stack is split
        raise DimensionError(f"{len(r.D)} stacked colligations need a stack of as many points")
    rows = solve_rows(h.delta, r.dim_E, n)
    blocks = [slice(k, k + rows) for k in range(0, len(stack.norms), rows)]
    columns = _nonzero_columns(h.delta, stack.delta, n)
    parts = [_model_solution(_colligations(r, b), columns[b], n) for b in blocks]
    if not parts:  # an empty stack
        mjn = r.dim_E * r.J * n
        parts = [(np.empty((0, mjn, n), np.complex128), np.empty((0, n, n), np.complex128))]
    u, phi = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return Evaluation(stack.delta, stack.norms, u, phi)


def solve_rows(delta: DeltaMatrix, dim_E: int, n: int) -> int:
    """Rows of one solve in ``BLOCK_BYTES``: point, Delta, system, step, rhs, u, phi's padding."""
    jn, cn, m = delta.J * n, len(delta.entries[0]) * n, dim_E
    row = delta.d * n * n + jn * jn * (1 + (cn < jn)) + 2 * m * jn * (m * cn + n)
    return block_rows(16 * row)


def _colligations(r: Realization, rows: slice) -> Realization:
    """The colligations ``rows`` of a stacked realization as views, not checked again; else r."""
    if r.A.ndim == 2:
        return r
    part = object.__new__(Realization)
    names = ("A", "B", "C", "D", "isometry_defect")
    part.__dict__.update(vars(r), **{name: getattr(r, name)[rows] for name in names})
    return part


def _model_solution(r, big_delta: np.ndarray, n: int) -> tuple:
    """u and phi from one solve, at the (Jn) x (cn) view of Delta(x)'s non-zero block columns.

    r and Delta(x) may be stacked alike.  Ordered active unknowns first, the
    model system is [[X, 0], [Y, I]]: X u_a = rhs_a is solved, and the other
    unknowns are read off as rhs_rest - Y u_a.  A singular model system,
    possible only for a colligation that is not contractive, raises
    SingularMatrixError.
    """
    cn = big_delta.shape[-1]
    resolvent, rhs = model_operators(r, big_delta, n)[:2]  # the step is freed before the solve
    system, coupling = _split_rows(r, resolvent, cn)
    rhs_a, rhs_rest = _split_rows(r, rhs, cn)
    # a right-hand side stacked like the system reads as matrices under numpy 1.x and 2.x
    rhs_a = np.broadcast_to(rhs_a, system.shape[:-1] + rhs.shape[-1:])
    try:
        u = np.linalg.solve(system, rhs_a)
    except np.linalg.LinAlgError:
        raise SingularMatrixError("model system is singular at the evaluation point") from None
    if cn < r.J * n:  # padding unknowns to read off
        lead = u.shape[:-2]
        rest = rhs_rest - coupling @ u[..., None, :, :]
        u = np.concatenate([u.reshape(lead + (r.dim_E, cn, n)), rest], axis=-2)
        u = u.reshape(lead + (-1, n))
    del resolvent, system, coupling, rhs, rhs_a, rhs_rest  # freed before phi pads Delta
    return u, _phi_from(r, big_delta, u, n)


def eval_u(h: NcFunctionHandle, x: MatrixTuple, return_cond: bool = False):
    """Model vector u(x) of shape (mJn) x n by direct solve, read-only: :func:`evaluate`'s.

    Warns when the resolvent condition number exceeds ``COND_WARN_THRESHOLD``;
    with ``return_cond=True`` returns ``(u, cond)``.
    """
    ev = evaluate(h, x)
    cond = resolvent_condition(h, ev)
    return (ev.u, cond) if return_cond else ev.u


def resolvent_condition(h: NcFunctionHandle, ev: Evaluation) -> float:
    """Condition number of the model system at one point, formed again; warns if ill conditioned.

    Ordered active unknowns first, the system is R = [[X, 0], [Y, I]].  Where
    Y has more rows than columns (J > 2c), its thin QR Y = Q T shrinks the
    SVD: with W = [Q, Q_perp] unitary, diag(I, W*) R diag(I, W) is
    diag(M, I) for M = [[X, 0], [T, I]], and M's unit columns already give
    sigma_min <= 1 <= sigma_max, so cond(R) = cond(M).  Otherwise the SVD is
    of R itself, which for square and row grids (c = J) is X, the whole
    system.  An evaluation not on h's grid (a Delta of another size, or one
    not zero in the grid's padding columns) raises DimensionError.
    """
    if ev.phi.ndim != 2:
        raise DimensionError("the condition number is of one point's model system, not a stack's")
    n = ev.phi.shape[-1]
    jn = h.delta.J * n
    if ev.delta.shape != (jn, jn):
        raise DimensionError(
            f"evaluation has a {ev.delta.shape[0]} x {ev.delta.shape[1]} delta, "
            f"the handle's grid a {jn} x {jn} one at n = {n}"
        )
    columns = _nonzero_columns(h.delta, ev.delta, n)
    if np.count_nonzero(ev.delta[:, columns.shape[-1] :]):
        raise DimensionError(
            "evaluation's delta is not zero in the padding columns of the handle's grid"
        )
    resolvent = model_operators(h.realization, columns, n)[0]
    system, coupling = _split_rows(h.realization, resolvent, columns.shape[-1])
    a = system.shape[-1]
    coupling = coupling.reshape(-1, a)
    if len(coupling) > a:
        coupling = np.linalg.qr(coupling, mode="r")
    matrix = np.eye(a + len(coupling), dtype=np.complex128)  # [[X, 0], [T, I]]
    matrix[:a, :a] = system
    matrix[a:, :a] = coupling
    sv = np.linalg.svd(matrix, compute_uv=False)
    cond = float("inf") if sv[-1] == 0.0 else float(sv[0] / sv[-1])
    if cond > COND_WARN_THRESHOLD:
        warnings.warn(
            f"model system is near singular: condition number {cond:.3e}",
            NearSingularResolventWarning,
            stacklevel=3,
        )
    return cond


def eval_phi(h: NcFunctionHandle, x: MatrixTuple) -> np.ndarray:
    """Function value phi(x) = A I_n + (B kron I_n)(I_m kron Delta(x)) u(x), read-only."""
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
    _, rhs, step = model_operators(h.realization, big_delta, n)
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


def identity_defect(r, y: tuple, x: tuple):
    """|| I - phi_y* phi_x - u_y* (I_m kron (I - delta_y* delta_x)) u_x ||.

    ``y`` and ``x`` are (phi, u, Delta) triples: the model identity when y is
    an evaluated interior point, the boundary identity when y is
    (W, u_T, Delta(T)).  A float when neither triple has a row axis;
    otherwise an array of defects over their broadcast leading axes, so one
    boundary triple y checks a stacked x row by row, and colligations stacked
    with their points check each at its own.  Each row is bit-identical to
    its one-point call.
    """
    phi_y, u_y, delta_y = y
    phi_x, u_x, delta_x = x
    n = phi_x.shape[-1]
    m, jn = r.dim_E, r.J * n
    gram = np.eye(jn, dtype=np.complex128) - delta_y.conj().swapaxes(-1, -2) @ delta_x
    left = u_y.reshape(*u_y.shape[:-2], m, jn, n).conj().swapaxes(-1, -2) @ gram[..., None, :, :]
    left = left.swapaxes(-3, -2)
    left = left.reshape(*left.shape[:-2], m * jn)
    lhs = np.eye(n, dtype=np.complex128) - phi_y.conj().swapaxes(-1, -2) @ phi_x
    residual = lhs - left @ u_x
    return operator_norm(residual)


def random_realization(dim_E: int, J: int, seed: int) -> Realization:
    """Haar-style random unitary colligation: QR of a complex Gaussian."""
    if dim_E < 1 or J < 1:
        raise DimensionError("dim_E and J must be at least 1")
    q = haar_unitary(1 + dim_E * J, np.random.default_rng(seed))
    return Realization(dim_E, J, *_blocks(q))


def random_colligations(dim_E: int, J: int, seeds) -> Realization:
    """``random_realization(dim_E, J, seed)`` for each seed, as one stacked :class:`Realization`.

    Each seed takes the draws of :func:`random_realization`; one batched QR
    makes the colligations and the stacked :class:`Realization` checks them
    with one batched isometry check.
    """
    if dim_E < 1 or J < 1:
        raise DimensionError("dim_E and J must be at least 1")
    q = haar_unitaries(1 + dim_E * J, [np.random.default_rng(seed) for seed in seeds])
    return Realization(dim_E, J, *_blocks(q))


def perturb_realization(r: Realization, eps: float, seed: int) -> Realization:
    """Break the isometry by adding a Gaussian perturbation to D (negative control)."""
    g = _perturbations(r.dim_E * r.J, eps, [seed])[0]
    return Realization(
        dim_E=r.dim_E, J=r.J, A=r.A, B=r.B, C=r.C, D=r.D + g, isometry_tol=np.inf
    )


def perturb_colligations(r: Realization, eps: float, seeds) -> Realization:
    """:func:`perturb_realization` of each colligation of a stacked realization, with its seed."""
    g = _perturbations(r.dim_E * r.J, eps, seeds)
    return Realization(r.dim_E, r.J, r.A, r.B, r.C, r.D + g, isometry_tol=np.inf)


def _perturbations(mj: int, eps: float, seeds) -> np.ndarray:
    """The mj x mj complex Gaussian from each seed's generator, scaled to norm at most eps."""
    g = np.stack([np.random.default_rng(seed).standard_normal((2, mj, mj)) for seed in seeds])
    g = (g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0)
    g *= (eps / np.maximum(1.0, operator_norm(g)))[:, None, None]
    return g


# --- JSON wire format -------------------------------------------------------


def realization_to_json(r: Realization) -> dict:
    if r.A.ndim == 3:
        raise DimensionError("a stacked realization has no JSON form")
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
        dim_e = json_int(obj["dim_E"], "realization dim_E", 1)
        j = json_int(obj["J"], "realization J", 1)
        blocks = {name: matrix_from_json(obj[name]) for name in ("A", "B", "C", "D")}
    except KeyError as exc:
        raise ParseError(f"realization object missing field: {exc}") from None
    try:
        return Realization(dim_E=dim_e, J=j, isometry_tol=isometry_tol, **blocks)
    except DimensionError as exc:
        raise ParseError(str(exc)) from None
