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
with leading axes before the trailing matrix axes.
:func:`evaluate` calls them on one point with no leading axis;
:func:`evaluate_many` stacks B points of one matrix size along a leading
axis of length B and calls the same kernels once, with one batched SVD for
the norms ||Delta(x)|| and one stacked solve.  Every stacked product is a
loop of the same BLAS and LAPACK calls on the same matrices, so each of its
results is bit-identical to :func:`evaluate` at that point.
"""

from __future__ import annotations

import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

from .domain import DeltaMatrix, _eval_delta_stack, eval_delta
from .errors import DimensionError, ParseError, PreconditionError
from .freepoly import MatrixTuple
from .numerics import (
    COND_WARN_THRESHOLD,
    as_complex_matrix,
    haar_unitary,
    _json_int,
    matrix_from_json,
    matrix_to_json,
    _operator_norms,
    operator_norm,
)

ISOMETRY_TOL = 1e-8


class NearSingularResolventWarning(UserWarning):
    """The model system matrix is ill conditioned at the evaluation point."""


@dataclass(frozen=True, eq=False)
class Realization:
    """Isometric colligation (A, B, C, D) on C + (E tensor C^J).

    Construction fails when the stacked block matrix is farther than
    ``ISOMETRY_TOL`` from an isometry, unless ``validate=False`` (used only to
    build deliberately broken specimens for negative controls).
    """

    dim_E: int
    J: int
    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    isometry_defect: float = field(init=False)
    validate: InitVar[bool] = True

    def __post_init__(self, validate):
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
        m = self.colligation
        defect = operator_norm(m.conj().T @ m - np.eye(1 + mj))
        object.__setattr__(self, "isometry_defect", float(defect))
        if validate and defect > ISOMETRY_TOL:
            raise PreconditionError(
                f"colligation is not an isometry: defect {defect:.3e} > {ISOMETRY_TOL:.0e}"
            )

    @property
    def colligation(self) -> np.ndarray:
        top = np.hstack([self.A, self.B])
        bottom = np.hstack([self.C, self.D])
        return np.vstack([top, bottom])


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


def _times_delta(h: NcFunctionHandle, mat: np.ndarray, big_delta: np.ndarray, n: int):
    """(mat kron I_n)(I_m kron Delta) for mat with mJ columns, without forming either factor."""
    m, j = h.realization.dim_E, h.realization.J
    jn = j * n
    lead = big_delta.shape[:-2]
    rows = mat.shape[0] * n
    block_columns = mat.reshape(-1, m, j).transpose(1, 0, 2)
    blocks = block_columns @ big_delta.reshape(*lead, 1, j, n * jn)
    return blocks.reshape(*lead, m, rows, jn).swapaxes(-3, -2).reshape(*lead, rows, m * jn)


def _model_operators(h: NcFunctionHandle, big_delta: np.ndarray, n: int):
    """Resolvent I - step, rhs C kron I_n and step (D kron I_n)(I_m kron Delta)."""
    step = _times_delta(h, h.realization.D, big_delta, n)
    resolvent = np.eye(step.shape[-1], dtype=np.complex128) - step
    rhs = (h.realization.C[:, :, None] * np.eye(n, dtype=np.complex128)).reshape(-1, n)
    return resolvent, rhs, step


def _require_interior(norm: float) -> float:
    """The norm ||Delta(x)|| when it is below one; PreconditionError otherwise."""
    if not norm < 1.0:
        raise PreconditionError(f"point is not inside the domain: ||delta(x)|| = {norm:.6g}")
    return norm


def _phi_from(h: NcFunctionHandle, big_delta: np.ndarray, u: np.ndarray, n: int) -> np.ndarray:
    """A I_n + (B kron I_n)(I_m kron Delta) u for a model vector u."""
    b_delta = _times_delta(h, h.realization.B, big_delta, n)
    return h.realization.A[0, 0] * np.eye(n, dtype=np.complex128) + b_delta @ u


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
    return _evaluate_at(h, x, big_delta, operator_norm(big_delta))


def _evaluate_at(h: NcFunctionHandle, x: MatrixTuple, big_delta, norm: float) -> PointEvaluation:
    """:func:`evaluate` at x whose Delta(x) and ||Delta(x)|| are already known."""
    _require_interior(norm)
    resolvent, rhs, _ = _model_operators(h, big_delta, x.n)
    u = np.linalg.solve(resolvent, rhs)
    return PointEvaluation(x, big_delta, norm, resolvent, u, _phi_from(h, big_delta, u, x.n))


def evaluate_many(h: NcFunctionHandle, xs) -> list:
    """:func:`evaluate` at each of the points xs, all of one matrix size, on stacked arrays.

    Each result equals :func:`evaluate` at its point; when a point is not
    interior, the first such point raises the error :func:`evaluate` raises.
    """
    xs = list(xs)
    if not xs:
        raise DimensionError("evaluate_many needs at least one point")
    n = xs[0].n
    for x in xs:
        if x.d != h.delta.d:
            raise DimensionError(f"delta has d={h.delta.d} but point has d={x.d}")
        if x.n != n:
            raise DimensionError(f"points must share one matrix size, got n={n} and n={x.n}")
    components = [np.stack(comps) for comps in zip(*(x.components for x in xs))]
    big_delta = _eval_delta_stack(h.delta, components)
    return _evaluate_stack(h, xs, big_delta, _interior_norms(big_delta))


def _evaluate_stack(h: NcFunctionHandle, xs: list, big_delta: np.ndarray, norms) -> list:
    """:func:`evaluate_many` at interior xs whose stacked Delta(x) and ||Delta(x)|| are known."""
    n = xs[0].n
    resolvent, rhs, _ = _model_operators(h, big_delta, n)
    # a right-hand side stacked like the resolvent reads as matrices under numpy 1.x and 2.x
    u = np.linalg.solve(resolvent, np.broadcast_to(rhs, resolvent.shape[:-1] + rhs.shape[-1:]))
    phi = _phi_from(h, big_delta, u, n)
    return [
        PointEvaluation(x, big_delta[k], float(norms[k]), resolvent[k], u[k], phi[k])
        for k, x in enumerate(xs)
    ]


def _interior_norms(big_delta: np.ndarray) -> np.ndarray:
    """||Delta|| of each stacked Delta from one batched SVD, when every point is interior."""
    if np.isfinite(big_delta).all():
        norms = _operator_norms(big_delta)
        if (norms < 1.0).all():
            return norms
    # the first point that is not interior raises the error evaluate raises
    return np.array([_require_interior(operator_norm(one)) for one in big_delta])


def eval_u(h: NcFunctionHandle, x: MatrixTuple, return_cond: bool = False):
    """Model vector u(x) of shape (mJn) x n by direct solve.

    Warns when the resolvent condition number exceeds ``COND_WARN_THRESHOLD``;
    with ``return_cond=True`` returns ``(u, cond)``.
    """
    ev = evaluate(h, x)
    cond = _resolvent_condition(ev)
    return (ev.u, cond) if return_cond else ev.u


def _resolvent_condition(ev: PointEvaluation) -> float:
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
    _, rhs, step = _model_operators(h, big_delta, n)
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
    value = _phi_from(h, big_delta, acc, n)
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
    return _identity_defect(h, ev_y.phi, ev_y.u, ev_y.delta, ev_x)


def _identity_defect(h: NcFunctionHandle, phi_y, u_y, delta_y, ev: PointEvaluation) -> float:
    """|| I - phi_y* phi(x) - u_y* (I_m kron (I - delta_y* Delta(x))) u(x) ||, ev at x.

    The model identity when (phi_y, u_y, delta_y) are taken at an interior
    y, the boundary identity when they are (W, u_T, Delta(T)).
    """
    n = ev.x.n
    m = h.realization.dim_E
    jn = h.realization.J * n
    gram = np.eye(jn, dtype=np.complex128) - delta_y.conj().T @ ev.delta
    left = u_y.reshape(m, jn, n).conj().transpose(0, 2, 1) @ gram
    left = left.transpose(1, 0, 2).reshape(n, m * jn)
    lhs = np.eye(n, dtype=np.complex128) - phi_y.conj().T @ ev.phi
    return operator_norm(lhs - left @ ev.u)


def random_realization(dim_E: int, J: int, seed: int) -> Realization:
    """Haar-style random unitary colligation: QR of a complex Gaussian."""
    if dim_E < 1 or J < 1:
        raise DimensionError("dim_E and J must be at least 1")
    q = haar_unitary(1 + dim_E * J, np.random.default_rng(seed))
    return Realization(
        dim_E=dim_E,
        J=J,
        A=q[:1, :1],
        B=q[:1, 1:],
        C=q[1:, :1],
        D=q[1:, 1:],
    )


def perturb_realization(r: Realization, eps: float, seed: int = 0) -> Realization:
    """Break the isometry by adding a Gaussian perturbation to D (negative control)."""
    rng = np.random.default_rng(seed)
    mj = r.dim_E * r.J
    g = (rng.standard_normal((mj, mj)) + 1j * rng.standard_normal((mj, mj))) / np.sqrt(2.0)
    g *= eps / max(1.0, operator_norm(g))
    return Realization(
        dim_E=r.dim_E, J=r.J, A=r.A, B=r.B, C=r.C, D=r.D + g, validate=False
    )


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
        out = Realization(dim_E=dim_e, J=j, validate=False, **blocks)
    except DimensionError as exc:
        raise ParseError(str(exc)) from None
    if out.isometry_defect > isometry_tol:
        raise PreconditionError(
            f"colligation is not an isometry: defect {out.isometry_defect:.3e} "
            f"> {isometry_tol:.0e}"
        )
    return out
