"""Polynomial matrix domains: membership, boundary geometry, inward cones.

A domain is cut out by a matrix of free polynomials, kept as given and not
necessarily square: the point x belongs to it when ||delta(x)|| < 1.  The
model evaluations (:func:`eval_delta`, :func:`delta_derivative`) zero pad it
to the square J x J grid of the transfer-function machinery; geometric tests
(isometry of the boundary value, inward cones) use the grid as given, since
zero padding inserts zero rows or columns into the Gram matrix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ParseError, PreconditionError
from .freepoly import (
    FreePolynomial,
    MatrixTuple,
    directional_derivative_poly,
    eval_poly,
    _eval_words,
    poly_from_json,
    poly_to_json,
)
from .numerics import (
    RANK_RTOL,
    _json_int,
    hermitian_part_max_eig,
    numerical_rank,
    operator_norm,
    is_self_adjoint,
    _operator_norms,
)

DISTINGUISHED_TOL = 1e-8
SELF_ADJOINT_TOL = 1e-8  # ||M - M*|| bound of the self-adjointness cone
INWARD_BETA = 1e-8  # margin by which an inward direction must be strictly inward
DESCENT_ITERATIONS = 150  # subgradient steps per start of the witness search
SAMPLE_MARGIN = 0.05  # interior sampling: ||delta(x)|| <= 1 - margin
MAX_HALVINGS = 60  # halvings of a random draft before sampling gives up
SEQUENCE_FIRST_STEP = 0.5  # first step of radial and ray approach sequences


class GDeltaExitWarning(UserWarning):
    """Some generated approach points fell outside the domain and were dropped."""


@dataclass(frozen=True)
class DeltaMatrix:
    """Grid of free polynomials defining the domain, kept as given (rows x cols).

    ``J`` = max(rows, cols) is the size of the square grid the
    transfer-function model sees; only :func:`_block_grid` pads to it.
    """

    d: int
    entries: tuple

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        if not rows or not rows[0]:
            raise DimensionError("entry grid must be non-empty")
        for row in rows:
            if len(row) != len(rows[0]):
                raise DimensionError("entry grid rows must have equal length")
            for p in row:
                if not isinstance(p, FreePolynomial):
                    raise DimensionError("entries must be FreePolynomial instances")
                if p.d != self.d:
                    raise DimensionError(
                        f"entry has d={p.d}, delta matrix has d={self.d}"
                    )
        object.__setattr__(self, "entries", rows)

    @property
    def J(self) -> int:
        return max(len(self.entries), len(self.entries[0]))

    def is_homogeneous_degree_one(self) -> bool:
        return all(p.is_homogeneous_degree_one() for row in self.entries for p in row)


def _block_grid(grid, n: int, entry, lead: tuple = (), size: int | None = None) -> np.ndarray:
    """Block matrix whose n x n block (a, b) is entry(grid[a][b]), stacked over ``lead``.

    With ``size`` it has size x size blocks, those outside the grid zero.
    """
    rows, cols = len(grid), len(grid[0])
    shape = (rows * n, cols * n) if size is None else (size * n, size * n)
    out = np.zeros(lead + shape, dtype=np.complex128)
    for a in range(rows):
        for b in range(cols):
            out[..., a * n : (a + 1) * n, b * n : (b + 1) * n] = entry(grid[a][b])
    return out


def eval_delta(delta: DeltaMatrix, x: MatrixTuple) -> np.ndarray:
    """Padded (Jn) x (Jn) block matrix; block (a, b) is entry (a, b) at x.

    Block layout: the row-block index is slowest, the intra-block index
    fastest, matching the Kronecker conventions of the realization module.
    """
    if delta.d != x.d:
        raise DimensionError(f"delta has d={delta.d} but point has d={x.d}")
    return _block_grid(delta.entries, x.n, lambda p: eval_poly(p, x), size=delta.J)


def _eval_delta_stack(delta: DeltaMatrix, components) -> np.ndarray:
    """Padded Delta at stacked points: components[r] has shape (B, n, n), the result (B, Jn, Jn)."""
    lead, n = components[0].shape[:-2], components[0].shape[-1]
    return _block_grid(delta.entries, n, lambda p: _eval_words(p, components), lead, size=delta.J)


def eval_delta_original(delta: DeltaMatrix, x: MatrixTuple) -> np.ndarray:
    """Unpadded evaluation on the grid as given."""
    if delta.d != x.d:
        raise DimensionError(f"delta has d={delta.d} but point has d={x.d}")
    return _block_grid(delta.entries, x.n, lambda p: eval_poly(p, x))


def delta_derivative(delta: DeltaMatrix, t: MatrixTuple, h: MatrixTuple) -> np.ndarray:
    """Entrywise directional derivative of the padded grid at t in direction h."""
    if delta.d != t.d or delta.d != h.d:
        raise DimensionError("delta and tuples must share d")
    return _block_grid(
        delta.entries, t.n, lambda p: directional_derivative_poly(p, t, h), size=delta.J
    )


def _gram_derivative(delta: DeltaMatrix, t: MatrixTuple, h: MatrixTuple, dt=None) -> np.ndarray:
    """delta(t)* times the derivative of delta at t along h, on the grid as given.

    This is the matrix whose sign and self-adjointness define the inward
    cones; it is complex-linear in h.  ``dt`` is delta(t) when already known.
    """
    if dt is None:
        dt = eval_delta_original(delta, t)
    dv = _block_grid(delta.entries, t.n, lambda p: directional_derivative_poly(p, t, h))
    return dt.conj().T @ dv


def _cone_matrix(delta: DeltaMatrix, t: MatrixTuple, h: MatrixTuple) -> np.ndarray:
    """The inward-cone matrix delta(T)* grad delta(T)[h] of a direction h in the unit ball."""
    nrm = h.max_component_norm()
    if nrm > 1.0 + 1e-12:
        raise PreconditionError(f"direction exceeds the unit ball: max component norm {nrm:.6g}")
    return _gram_derivative(delta, t, h)


@dataclass(frozen=True)
class Membership:
    inside: bool
    margin: float
    norm: float

    def __bool__(self):
        return self.inside


def in_G_delta(delta: DeltaMatrix, x: MatrixTuple) -> Membership:
    """Strict membership ||delta(x)|| < 1, with margin 1 - ||delta(x)||."""
    nrm = operator_norm(eval_delta(delta, x))
    return Membership(inside=nrm < 1.0, margin=1.0 - nrm, norm=nrm)


def on_distinguished_boundary(delta: DeltaMatrix, t: MatrixTuple) -> bool:
    """True iff the unpadded value is an isometry: ||d(T)*d(T) - I|| <= DISTINGUISHED_TOL."""
    v = eval_delta_original(delta, t)
    eye = np.eye(v.shape[1], dtype=np.complex128)
    return operator_norm(v.conj().T @ v - eye) <= DISTINGUISHED_TOL


def nontangential_constant(delta: DeltaMatrix, z: MatrixTuple, t: MatrixTuple) -> float:
    """Aperture ||delta(Z) - delta(T)|| / (1 - ||delta(Z)||^2); inf when Z is not interior.

    A sequence approaches T non-tangentially iff this stays bounded along it.
    """
    dz = eval_delta(delta, z)
    dt = eval_delta(delta, t)
    denominator = 1.0 - operator_norm(dz) ** 2
    if denominator <= 0.0:
        return float("inf")
    return operator_norm(dz - dt) / denominator


def in_Gamma(
    delta: DeltaMatrix, t: MatrixTuple, h: MatrixTuple, beta: float = INWARD_BETA
) -> bool:
    """Inward cone test: the Hermitian part of d(T)* grad d(T)[h] is <= -beta."""
    return hermitian_part_max_eig(_cone_matrix(delta, t, h)) <= -beta


def in_Sigma(delta: DeltaMatrix, t: MatrixTuple, h: MatrixTuple) -> bool:
    """Self-adjointness cone: d(T)* grad d(T)[h] is self-adjoint within SELF_ADJOINT_TOL."""
    return is_self_adjoint(_cone_matrix(delta, t, h), SELF_ADJOINT_TOL)


def in_Delta(
    delta: DeltaMatrix, t: MatrixTuple, h: MatrixTuple, beta: float = INWARD_BETA
) -> bool:
    """Transverse inward cone: self-adjoint within SELF_ADJOINT_TOL and eigenvalues <= -beta."""
    m = _cone_matrix(delta, t, h)
    return is_self_adjoint(m, SELF_ADJOINT_TOL) and hermitian_part_max_eig(m) <= -beta


# --- assumption checks ------------------------------------------------------


def _vec_to_tuple(vec: np.ndarray, d: int, n: int) -> MatrixTuple:
    return MatrixTuple(tuple(vec.reshape(d, n, n)[r] for r in range(d)))


def _gram_derivative_matrix(delta: DeltaMatrix, t: MatrixTuple) -> np.ndarray:
    """Matrix of the complex-linear map h -> d(T)* grad d(T)[h] on vectorized tuples."""
    d, n = t.d, t.n
    dt = eval_delta_original(delta, t)
    return np.column_stack([
        _gram_derivative(delta, t, _vec_to_tuple(e, d, n), dt).reshape(-1)
        for e in np.eye(d * n * n, dtype=np.complex128)
    ])


def _project_to_unit_ball(vec: np.ndarray, d: int, n: int) -> np.ndarray:
    comps = vec.reshape(d, n, n).copy()
    for r in range(d):
        u, s, vh = np.linalg.svd(comps[r])
        comps[r] = u @ np.diag(np.minimum(s, 1.0)) @ vh
    return comps.reshape(-1)


@dataclass(frozen=True)
class InwardWitnessResult:
    found: bool
    witness: MatrixTuple | None
    beta: float  # transversality margin achieved by the witness (>= 0 when found)


def _sigma_nullspace(lmat: np.ndarray, gram_dim: int) -> np.ndarray:
    """Orthonormal real basis (columns) of {h : gram derivative self-adjoint}.

    The tuple h is coordinatized as (Re vec, Im vec) in R^{2 d n^2}; the
    self-adjointness defect M(h) - M(h)* is real-linear in these coordinates.
    With L_k column k of ``lmat`` read as a gram_dim x gram_dim matrix, the
    unit vector of Re h_k maps to L_k - L_k* and that of Im h_k to
    i (L_k + L_k*).
    """
    dim = lmat.shape[1]
    cols = lmat.T.reshape(dim, gram_dim, gram_dim)
    adj = cols.conj().transpose(0, 2, 1)
    defects = np.concatenate([cols - adj, 1j * (cols + adj)]).reshape(2 * dim, -1)
    constraint = np.concatenate([defects.real, defects.imag], axis=1).T
    _, s, vh = np.linalg.svd(constraint)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(2 * dim)
    null_mask = np.concatenate([s <= RANK_RTOL * s[0], np.ones(2 * dim - s.size, bool)])
    return vh.T[:, null_mask]


def find_transverse_direction(
    delta: DeltaMatrix, t: MatrixTuple, n_starts: int = 50, seed: int = 0
) -> InwardWitnessResult:
    """Search the unit ball for K with d(T)* grad d(T)[K] <= -INWARD_BETA, self-adjoint.

    Tries K = -T first (exact for grids homogeneous of degree one, where the
    Gram derivative at -T is minus the identity).  Otherwise runs projected
    subgradient descent on the largest eigenvalue of the Hermitian part from
    ``n_starts`` random starts, ``DESCENT_ITERATIONS`` steps each; candidates
    whose Gram derivative is not self-adjoint within ``SELF_ADJOINT_TOL`` are
    repaired by projecting onto the self-adjointness subspace and re-scored.
    Failure means "no witness found", not certified infeasibility.
    """
    d, n = t.d, t.n
    dim = d * n * n

    best_val, best_k = np.inf, None

    def consider(k: MatrixTuple):
        nonlocal best_val, best_k
        m = _gram_derivative(delta, t, k)
        top_eig, sym_defect = hermitian_part_max_eig(m), operator_norm(m - m.conj().T)
        if sym_defect <= SELF_ADJOINT_TOL and top_eig < best_val:
            best_val, best_k = top_eig, k
        return top_eig, sym_defect

    neg_t = -1.0 * t
    nrm = neg_t.max_component_norm()
    if nrm > 0:
        consider(neg_t * min(1.0, 1.0 / nrm))
    if best_val <= -INWARD_BETA:
        return InwardWitnessResult(found=True, witness=best_k, beta=-best_val)

    lmat = _gram_derivative_matrix(delta, t)
    gram_dim = len(delta.entries[0]) * n
    sigma_basis = _sigma_nullspace(lmat, gram_dim)
    rng = np.random.default_rng(seed)
    for _ in range(n_starts):
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec = _project_to_unit_ball(vec, d, n)
        for it in range(DESCENT_ITERATIONS):
            m = (lmat @ vec).reshape(gram_dim, gram_dim)
            herm = (m + m.conj().T) / 2.0
            _, evecs = np.linalg.eigh(herm)
            top = evecs[:, -1]
            grad = lmat.conj().T @ np.outer(top, top.conj()).reshape(-1)
            vec = _project_to_unit_ball(vec - (0.5 / np.sqrt(it + 1.0)) * grad, d, n)
        k = _vec_to_tuple(vec, d, n)
        top_eig, sym_defect = consider(k)
        if sym_defect > SELF_ADJOINT_TOL and top_eig < 0:
            # inward but not transverse: project onto the self-adjoint subspace
            proj = sigma_basis @ (sigma_basis.T @ np.concatenate([vec.real, vec.imag]))
            repaired = proj[:dim] + 1j * proj[dim:]
            if np.linalg.norm(repaired) > 0:
                consider(_vec_to_tuple(_project_to_unit_ball(repaired, d, n), d, n))
        if best_val <= -INWARD_BETA:
            break
    return InwardWitnessResult(found=best_val <= -INWARD_BETA, witness=best_k, beta=-best_val)


def sigma_span_dimension(delta: DeltaMatrix, t: MatrixTuple) -> int:
    """Complex dimension of the span of the self-adjointness cone at t.

    The constraint M(h) = M(h)* is real-linear; its real solution space is
    computed by SVD and the span dimension is the complex rank of a basis.
    """
    dim = t.d * t.n * t.n
    null_basis = _sigma_nullspace(_gram_derivative_matrix(delta, t), len(delta.entries[0]) * t.n)
    if null_basis.shape[1] == 0:
        return 0
    return numerical_rank([col[:dim] + 1j * col[dim:] for col in null_basis.T])


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the inward-direction assumptions at a boundary point."""

    witness: InwardWitnessResult  # a failed search is inconclusive, not infeasibility
    a2: bool
    sigma_span_dim: int
    full_dim: int

    @property
    def a1(self) -> bool:
        return self.witness.found

    @property
    def a(self) -> bool:
        return self.a1 and self.a2


def check_assumption_A(
    delta: DeltaMatrix, t: MatrixTuple, n_starts: int = 50
) -> AssumptionReport:
    """Check that transverse inward directions exist and span everything.

    The first part searches for a witness direction; a failed search is
    reported as inconclusive, never as certified infeasibility.  The second
    part computes the complex span dimension of the self-adjointness cone and
    compares it with d * n^2.
    """
    if not on_distinguished_boundary(delta, t):
        raise PreconditionError("assumption checks require T on the distinguished boundary")
    witness = find_transverse_direction(delta, t, n_starts=n_starts)
    span, full = sigma_span_dimension(delta, t), t.d * t.n * t.n
    return AssumptionReport(witness=witness, a2=span == full, sigma_span_dim=span, full_dim=full)


# --- approach sequences -----------------------------------------------------


@dataclass(frozen=True)
class ApproachSequence:
    """Recipe for a sequence approaching the base point.

    kind "radial" generates (1 - t) * T for each step t; kind "ray" generates
    T + t * K.  Steps must decrease geometrically by 2 so the limit
    extrapolation contract holds downstream.
    """

    base: MatrixTuple
    kind: str
    direction: MatrixTuple | None
    steps: tuple

    def __post_init__(self):
        if self.kind not in ("radial", "ray"):
            raise PreconditionError(f"unknown sequence kind {self.kind!r}")
        if self.kind == "ray":
            if self.direction is None:
                raise PreconditionError("ray sequences need a direction tuple")
            if self.direction.d != self.base.d or self.direction.n != self.base.n:
                raise DimensionError("direction must match the base point in d and n")
        if len(self.steps) < 2:
            raise PreconditionError("need at least 2 steps")
        for t in self.steps:
            if not t > 0:
                raise PreconditionError("steps must be positive")


def radial_sequence(
    t: MatrixTuple, num_steps: int = 10, first_step: float = SEQUENCE_FIRST_STEP
) -> ApproachSequence:
    steps = tuple(first_step * 2.0 ** (-k) for k in range(num_steps))
    return ApproachSequence(base=t, kind="radial", direction=None, steps=steps)


def ray_sequence(
    t: MatrixTuple, direction: MatrixTuple, num_steps: int = 10,
    first_step: float = SEQUENCE_FIRST_STEP,
) -> ApproachSequence:
    steps = tuple(first_step * 2.0 ** (-k) for k in range(num_steps))
    return ApproachSequence(base=t, kind="ray", direction=direction, steps=steps)


class SequencePoints(NamedTuple):
    points: list
    steps: list
    dropped: int


def generate_sequence(seq: ApproachSequence, delta: DeltaMatrix) -> SequencePoints:
    """Materialize the sequence, keeping only points inside the domain.

    The radial rule is only meaningful when every monomial of every entry has
    total degree one, so that scaling the point scales the defining matrix;
    this is checked syntactically.  Dropped points are counted and warned
    about; an empty result is an error.
    """
    return _sequence_in_domain(seq, delta)[0]


def _sequence_in_domain(seq: ApproachSequence, delta: DeltaMatrix):
    """:func:`generate_sequence` with the stacked Delta and ||Delta|| of the kept points.

    Membership of every point comes from one stacked Delta and one batched
    SVD; each norm equals ``in_G_delta(delta, z).norm``.
    """
    if seq.kind == "radial" and not delta.is_homogeneous_degree_one():
        raise PreconditionError(
            "radial sequences require a grid homogeneous of degree one"
        )
    if delta.d != seq.base.d:
        raise DimensionError(f"delta has d={delta.d} but point has d={seq.base.d}")
    if seq.kind == "radial":
        zs = [(1.0 - t) * seq.base for t in seq.steps]
    else:
        zs = [seq.base + t * seq.direction for t in seq.steps]
    big_delta = _eval_delta_stack(delta, [np.stack(c) for c in zip(*(z.components for z in zs))])
    if not np.isfinite(big_delta).all():
        raise PreconditionError("matrix contains non-finite entries")
    norms = _operator_norms(big_delta)
    inside = norms < 1.0
    dropped = len(zs) - int(inside.sum())
    if dropped:
        warnings.warn(
            f"{dropped} of {len(seq.steps)} sequence points fell outside the domain",
            GDeltaExitWarning,
            stacklevel=3,
        )
    if not inside.any():
        raise PreconditionError("no sequence point lies inside the domain")
    points = SequencePoints(
        points=[z for z, keep in zip(zs, inside) if keep],
        steps=[float(t) for t, keep in zip(seq.steps, inside) if keep],
        dropped=dropped,
    )
    return points, big_delta[inside], norms[inside]


# stacked Delta bytes that one block of drafts may take in _into_domain
_BLOCK_BYTES = 8 << 20


def random_interior_point(
    delta: DeltaMatrix,
    n: int,
    rng: np.random.Generator,
    margin: float = SAMPLE_MARGIN,
) -> MatrixTuple:
    """Random point with ||delta(x)|| <= 1 - margin, by scaling a Gaussian tuple.

    Sampling has two steps.  :func:`_gaussian_draft` takes every random draw:
    d complex Gaussian n x n matrices, in component order, each real part
    before its imaginary part.  :func:`_into_domain` then scales the draft
    into the domain and draws nothing: it divides each component by
    max(1, its norm) and halves the tuple until ||delta(x)|| <= 1 - margin,
    at most ``MAX_HALVINGS`` times.  The margin must lie in (0, 1).
    Samplers of many points (the Julia sweep, ``ncjulia fuzz``) draw their
    drafts in this stream order and scale them in one stacked call, so each
    of their points is bit-identical to a call of this function on the same
    generator.  A stacked call works in blocks whose stacked Delta takes at
    most ``_BLOCK_BYTES`` (8 MiB), so its memory does not grow with the
    sample count.
    """
    return _into_domain(delta, [_gaussian_draft(delta.d, n, rng)], margin)[0][0]


def _gaussian_draft(d: int, n: int, rng: np.random.Generator) -> tuple:
    """The d complex Gaussian n x n matrices of one random point: all the draws it takes."""
    return tuple(
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        for _ in range(d)
    )


def _check_margin(margin: float):
    if not 0.0 < margin < 1.0:
        raise PreconditionError(f"sampling margin must lie in (0, 1), got {margin!r}")


def _block_rows(delta: DeltaMatrix, n: int) -> int:
    """Drafts of matrix size n that one block of :func:`_into_domain` scales together."""
    return max(1, _BLOCK_BYTES // (16 * (delta.J * n) ** 2))


def _into_domain(
    delta: DeltaMatrix, drafts, margin: float = SAMPLE_MARGIN, max_halvings: int = MAX_HALVINGS
) -> list:
    """(x, Delta(x), ||Delta(x)||) for each draft, scaled as :func:`random_interior_point` scales it.

    Drafts of one matrix size are scaled together, in blocks of
    :func:`_block_rows`.  When drafts fail, the error of the first failing
    draft in draft order is raised, as scaling them one by one would.
    """
    _check_margin(margin)
    by_size = {}
    for k, draft in enumerate(drafts):
        by_size.setdefault(draft[0].shape[-1], []).append(k)
    out = [None] * len(drafts)
    for n, rows in by_size.items():
        step = _block_rows(delta, n)
        for start in range(0, len(rows), step):
            block = rows[start : start + step]
            scaled = _scale_block(delta, [drafts[k] for k in block], margin, max_halvings)
            for k, result in zip(block, scaled):
                out[k] = result
    for result in out:
        if isinstance(result, str):
            raise PreconditionError(result)
    return out


def _scale_block(delta: DeltaMatrix, drafts, margin: float, max_halvings: int) -> list:
    """The scaled sample, or the message of its error, for each draft of one matrix size.

    One batched norm per component scales the drafts into the unit ball;
    then each halving round takes one stacked Delta and one batched SVD over
    the drafts not yet accepted, and halves the rest with ``0.5 *`` as
    ``MatrixTuple.__mul__`` does.
    """
    comps = []
    for r in range(delta.d):
        g = np.stack([draft[r] for draft in drafts])
        comps.append(g / np.maximum(1.0, _operator_norms(g))[:, None, None])
    out = ["could not scale a random point into the domain"] * len(drafts)
    rows = np.arange(len(drafts))
    for _ in range(max_halvings):
        if not rows.size:
            break
        big_delta = _eval_delta_stack(delta, comps)
        finite = np.isfinite(big_delta).all(axis=(-2, -1))
        norms = np.zeros(rows.size)
        norms[finite] = _operator_norms(big_delta if finite.all() else big_delta[finite])
        accept = finite & (norms <= 1.0 - margin)
        accepted = big_delta[accept]
        for j, k in enumerate(np.flatnonzero(accept)):
            x = MatrixTuple(tuple(c[k] for c in comps))
            out[rows[k]] = (x, accepted[j], float(norms[k]))
        for k in np.flatnonzero(~finite):
            out[rows[k]] = "matrix contains non-finite entries"
        halve = finite & ~accept
        rows = rows[halve]
        comps = [0.5 * c[halve] for c in comps]
    return out


# --- JSON wire format -------------------------------------------------------


def delta_to_json(delta: DeltaMatrix) -> dict:
    return {
        "d": delta.d,
        "J": delta.J,
        "entries": [[poly_to_json(p) for p in row] for row in delta.entries],
    }


def delta_from_json(obj) -> DeltaMatrix:
    """Decode a delta matrix; entries may be polynomial objects or grammar text."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected a delta object, got {type(obj).__name__}")
    try:
        d = _json_int(obj["d"], "delta variable count d", 1)
        grid = obj["entries"]
    except KeyError as exc:
        raise ParseError(f"delta object missing field: {exc}") from None
    if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
        raise ParseError("delta entries must be a grid of rows")
    try:
        out = DeltaMatrix(d, [[poly_from_json(p, d) for p in row] for row in grid])
    except DimensionError as exc:
        raise ParseError(str(exc)) from None
    if "J" in obj and _json_int(obj["J"], "delta J", 1) != out.J:
        raise ParseError(f"delta lists J={obj['J']} but padded size is {out.J}")
    return out
