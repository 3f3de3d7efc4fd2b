"""Polynomial matrix domains: membership, boundary geometry, inward cones.

A domain is cut out by a matrix of free polynomials, kept as given and not
necessarily square: the point x belongs to it when ||delta(x)|| < 1.  Every
evaluation of the grid zero pads it to the square J x J grid of the
transfer-function machinery.  Its value on the grid as given, the top-left
block, is what the geometric tests at a :class:`BoundaryPoint` (isometry of
the boundary value, inward cones) read, since zero padding inserts zero
rows or columns into the Gram matrix.  Every inward-cone question about a
direction h at T forms the cone matrix M = delta(T)* grad delta(T)[h] once,
by :func:`cone_matrix`, and reads its margin from :func:`inward_margin`, and
its asymmetry ||M - M*|| where self-adjointness is asked; whether a transverse
inward direction exists is decided by a nearest-point iteration with away steps.
The :func:`boundary_point` last built is kept (``functools.lru_cache`` of one
entry), so its readers (the functions about T, :func:`in_G_delta` and
``realization.evaluate``) share one Delta per point.  An approach path to a
boundary point, radial or along a direction, is made and checked by one call
of :func:`generate_sequence`; ``boundary.tfae_report`` reads its aperture.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DimensionError, ParseError, PreconditionError
from .freepoly import (
    MAX_TERMS,
    FreePolynomial,
    MatrixTuple,
    eval_words,
    lift,
    poly_from_json,
    poly_to_json,
)
from .numerics import RANK_RTOL, as_complex_matrix, json_int, operator_norm, read_only

DISTINGUISHED_TOL = 1e-8
SELF_ADJOINT_TOL = 1e-8  # ||M - M*|| bound of the self-adjointness cone
INWARD_BETA = 1e-8  # margin by which an inward direction must be strictly inward
WITNESS_ITERATIONS = 1000  # cap of the nearest-point steps of the inward-witness search
SAMPLE_MARGIN = 0.05  # interior sampling: ||delta(x)|| <= 1 - margin
MAX_HALVINGS = 60  # halvings of a random draft before sampling gives up
SEQUENCE_FIRST_STEP = 0.5  # first step of radial and ray approach sequences
MAX_FAMILY_SIZE = 64  # largest named delta family, delta-file grid side and ncjulia fuzz --dim-E
MAX_DELTA_VARIABLES = MAX_FAMILY_SIZE * (MAX_FAMILY_SIZE + 1) // 2  # d of cartan:MAX_FAMILY_SIZE


class GDeltaExitWarning(UserWarning):
    """Some generated approach points fell outside the domain and were dropped."""


@dataclass(frozen=True)
class DeltaMatrix:
    """Grid of free polynomials defining the domain, kept as given (rows x cols).

    ``J`` = max(rows, cols) is the size of the square grid the
    transfer-function model sees; every evaluation pads to it.  Grids compare
    and hash by value; the hash is computed once, on construction, and kept.
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
        object.__setattr__(self, "_hash", hash((self.d, rows)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def J(self) -> int:
        return max(len(self.entries), len(self.entries[0]))

    def is_homogeneous_degree_one(self) -> bool:
        return all(p.is_homogeneous_degree_one() for row in self.entries for p in row)


def _on_given_grid(grid: DeltaMatrix, n: int, padded: np.ndarray) -> np.ndarray:
    """The top-left (rows n) x (cols n) view of a padded evaluation: the grid as given."""
    return padded[..., : len(grid.entries) * n, : len(grid.entries[0]) * n]


def eval_delta(delta: DeltaMatrix, x: MatrixTuple) -> np.ndarray:
    """Padded (Jn) x (Jn) block matrix; block (a, b) is entry (a, b) at x.

    Block layout: the row-block index is slowest, the intra-block index
    fastest, matching the Kronecker conventions of the realization module.
    """
    if delta.d != x.d:
        raise DimensionError(f"delta has d={delta.d} but point has d={x.d}")
    return _eval_delta_stack(delta, x.components)


def _eval_delta_stack(delta: DeltaMatrix, components) -> np.ndarray:
    """Padded Delta over any leading axes: components[r] is (..., n, n), the result (..., Jn, Jn).

    A zero entry is skipped: its block keeps the zero fill, as padding does.
    """
    lead, n = components[0].shape[:-2], components[0].shape[-1]
    out = np.zeros(lead + (delta.J * n, delta.J * n), dtype=np.complex128)
    for a, row in enumerate(delta.entries):
        for b, p in enumerate(row):
            if not p.is_zero():
                out[..., a * n : (a + 1) * n, b * n : (b + 1) * n] = eval_words(p, components)
    return out


def delta_derivative(delta: DeltaMatrix, t: MatrixTuple, h: MatrixTuple) -> np.ndarray:
    """Derivative of the padded grid at t along h: the top-right n x n of each block at lift(t, h)."""
    if delta.d != t.d:
        raise DimensionError("delta and tuples must share d")
    return _lift_corner(delta, t.n, _eval_delta_stack(delta, lift(t, h)))


def _lift_corner(delta: DeltaMatrix, n: int, at_lift: np.ndarray) -> np.ndarray:
    """The derivative in padded grids at lifts, (..., 2Jn, 2Jn): each block's top-right n x n."""
    j, lead = delta.J, at_lift.shape[:-2]
    blocks = at_lift.reshape(lead + (j, 2, n, j, 2, n))[..., :, 0, :, :, 1, :]
    return blocks.reshape(lead + (j * n, j * n))


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    """A point T with the padded Delta(T) of one evaluation: on the boundary or off it.

    ``given`` is Delta(T) on the grid as given, a view of ``delta``;
    ``delta_norm``, ``distinguished``, ``gram_map`` and ``sigma_basis`` are
    computed on first read.
    """

    grid: DeltaMatrix
    t: MatrixTuple
    delta: np.ndarray

    @property
    def given(self) -> np.ndarray:
        return _on_given_grid(self.grid, self.t.n, self.delta)

    @cached_property
    def delta_norm(self) -> float:
        return operator_norm(self.delta)

    @cached_property
    def distinguished(self) -> bool:
        """Delta(T) on the grid as given is an isometry: ||v*v - I|| <= DISTINGUISHED_TOL."""
        v = self.given
        eye = np.eye(v.shape[1], dtype=np.complex128)
        return operator_norm(v.conj().T @ v - eye) <= DISTINGUISHED_TOL

    def require_boundary(self) -> None:
        """Refuse T unless ||Delta(T)|| = 1 within DISTINGUISHED_TOL, testing interior first."""
        if self.delta_norm < 1.0 - DISTINGUISHED_TOL:
            raise PreconditionError(
                f"T is interior (||delta(T)|| = {self.delta_norm:.6g}); boundary analysis undefined"
            )
        if self.delta_norm > 1.0 + DISTINGUISHED_TOL:
            raise PreconditionError(
                f"T is outside the closed domain (||delta(T)|| = {self.delta_norm:.6g})"
            )

    @cached_property
    def gram_map(self) -> np.ndarray:
        """Matrix of the complex-linear map h -> d(T)* grad d(T)[h] on vectorized tuples.

        Column k is read from the grid at the lift [[T, e_k], [0, T]]; the
        lifts are evaluated in stacks of at most ``BLOCK_BYTES`` of lifts and
        padded grid.
        """
        d, n, grid = self.t.d, self.t.n, self.grid
        dim, rows = d * n * n, block_rows(16 * (2 * grid.J * n) ** 2 + 16 * d * (2 * n) ** 2)
        basis = np.eye(dim).reshape(dim, d, n, n).swapaxes(0, 1)
        columns = []
        for k in range(0, dim, rows):
            lifts = np.zeros((d, min(rows, dim - k), 2 * n, 2 * n), dtype=np.complex128)
            lifts[..., :n, :n] = lifts[..., n:, n:] = np.stack(self.t.components)[:, None]
            lifts[..., :n, n:] = basis[:, k : k + rows]
            at_lifts = _lift_corner(grid, n, _eval_delta_stack(grid, lifts))
            columns.append(self.given.conj().T @ _on_given_grid(grid, n, at_lifts))
        return read_only(np.ascontiguousarray(np.concatenate(columns).reshape(dim, -1).T))

    @cached_property
    def sigma_basis(self) -> np.ndarray:
        """Orthonormal real basis (columns) of {h : d(T)* grad d(T)[h] self-adjoint}."""
        return read_only(_sigma_nullspace(self.gram_map, self.given.shape[1]))


@lru_cache(maxsize=1)
def boundary_point(delta: DeltaMatrix, t: MatrixTuple) -> BoundaryPoint:
    """The point T with Delta(T), evaluated once: a boundary point, or an interior x.

    The last point is kept: called again by position with an equal grid (a
    frozen value) and the same tuple object, it returns that point, with what
    it has computed on first read.  A keyword call is evaluated afresh.
    """
    return BoundaryPoint(delta, t, read_only(eval_delta(delta, t)))


def cone_matrix(bp: BoundaryPoint, h: MatrixTuple) -> np.ndarray:
    """The inward-cone matrix delta(T)* grad delta(T)[h] of a direction h in the unit ball.

    It is complex-linear in h; its sign and self-adjointness define the inward cones.
    """
    nrm = h.max_component_norm()
    if nrm > 1.0 + 1e-12:
        raise PreconditionError(f"direction exceeds the unit ball: max component norm {nrm:.6g}")
    dv = _on_given_grid(bp.grid, bp.t.n, delta_derivative(bp.grid, bp.t, h))
    return bp.given.conj().T @ dv


@dataclass(frozen=True)
class Membership:
    inside: bool
    margin: float
    norm: float

    def __bool__(self):
        return self.inside


def in_G_delta(delta: DeltaMatrix, x: MatrixTuple) -> Membership:
    """Strict membership ||delta(x)|| < 1, with margin 1 - ||delta(x)||: the kept point's norm."""
    nrm = boundary_point(delta, x).delta_norm
    return Membership(inside=nrm < 1.0, margin=1.0 - nrm, norm=nrm)


def inward_margin(m: np.ndarray) -> float:
    """The margin beta = -lambda_max((M + M*)/2) of a square cone matrix M.

    The direction of M lies in the inward cone Gamma when beta >= INWARD_BETA.
    """
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return float(np.linalg.eigvalsh((-a - a.conj().T) / 2.0)[0])


def in_Delta(bp: BoundaryPoint, h: MatrixTuple) -> bool:
    """Transverse inward cone: ||M - M*|| <= SELF_ADJOINT_TOL, inward_margin(M) >= INWARD_BETA."""
    return _scored(bp, h).found


# --- assumption checks ------------------------------------------------------


@dataclass(frozen=True)
class InwardWitnessResult:
    """The best self-adjoint direction scored, ``witness``, and its margin ``beta`` (-inf if none).

    ``certificate`` is a density matrix P with every |tr(P M_k)| < INWARD_BETA / sqrt(d n), M_k
    the cone matrices of a basis of Sigma: no transverse direction of margin INWARD_BETA exists.
    It is None when a witness was found, and when the iteration cap ran out: then the search is
    not ``decided``.
    """

    found: bool  # beta >= INWARD_BETA
    witness: MatrixTuple | None
    beta: float
    certificate: np.ndarray | None

    @property
    def decided(self) -> bool:
        return self.found or self.certificate is not None


def _sigma_nullspace(lmat: np.ndarray, gram_dim: int) -> np.ndarray:
    """Orthonormal real basis (columns) of {h : gram derivative self-adjoint}.

    The tuple h is coordinatized as (Re vec, Im vec) in R^{2 d n^2}; the
    self-adjointness defect M(h) - M(h)* is real-linear in these coordinates.
    With L_k column k of ``lmat`` read as a gram_dim x gram_dim matrix, the
    unit vector of Re h_k maps to L_k - L_k* and that of Im h_k to
    i (L_k + L_k*).  A zero constraint (a grid constant to first order at T)
    has only zero singular values, so the basis is every row of vh: Sigma is
    all of R^{2 d n^2}.
    """
    dim = lmat.shape[1]
    cols = lmat.T.reshape(dim, gram_dim, gram_dim)
    adj = cols.conj().transpose(0, 2, 1)
    defects = np.concatenate([cols - adj, 1j * (cols + adj)]).reshape(2 * dim, -1)
    constraint = np.concatenate([defects.real, defects.imag], axis=1).T
    _, s, vh = np.linalg.svd(constraint)
    null_mask = np.concatenate([s <= RANK_RTOL * s[0], np.ones(2 * dim - s.size, bool)])
    return vh.T[:, null_mask]


def _scored(bp: BoundaryPoint, k: MatrixTuple) -> InwardWitnessResult:
    """k as a witness candidate: scored by its margin if its cone matrix is self-adjoint."""
    m = cone_matrix(bp, k)
    if operator_norm(m - m.conj().T) > SELF_ADJOINT_TOL:
        return InwardWitnessResult(False, None, -np.inf, None)
    beta = inward_margin(m)
    return InwardWitnessResult(found=beta >= INWARD_BETA, witness=k, beta=beta, certificate=None)


def find_transverse_direction(bp: BoundaryPoint) -> InwardWitnessResult:
    """A self-adjoint K in the unit ball with d(T)* grad d(T)[K] <= -INWARD_BETA, or a certificate.

    Tries K = -T first (exact for grids homogeneous of degree one, where the
    Gram derivative at -T is minus the identity).  Otherwise
    :func:`_nearest_point_search` decides; when it finds no witness, -T stays
    the best candidate if it scored better.
    """
    neg_t = -1.0 * bp.t
    tried = _scored(bp, neg_t * (1.0 / max(1.0, neg_t.max_component_norm())))
    if tried.found:
        return tried
    search = _nearest_point_search(bp)
    return search if search.beta >= tried.beta else replace(tried, certificate=search.certificate)


def _nearest_point_search(bp: BoundaryPoint) -> InwardWitnessResult:
    """Gilbert's nearest-point iteration for 0 on S = {(tr P M_k)_k : P >= 0, tr P = 1}.

    M_k are the Hermitian cone matrices of a basis of Sigma.  The iteration is Frank-Wolfe with
    exact line search (Gilbert, SIAM J. Control 4, 1966) and away steps (Wolfe 1970): P is kept
    as atoms v v* of weights w, from the e_i at weight 1 / size, and s = sum_j w_j s(v_j).  Each
    step is one ``eigh`` of M(s) = sum_k s_k M_k; its lowest eigenvector is the Frank-Wolfe atom.
    After the first step, where the gap of the active atom of largest <s, s(v_j)> is larger, the
    step moves weight away from that atom instead, dropping it at weight 0: no zig-zag.  Once
    lambda_min(M(s)) >= |s|^2 / 2, -s/|s| has margin at least |s| / 2: it is the witness, scaled
    into the component unit ball and scored as any direction is.  Once sqrt(d n) |s| <
    INWARD_BETA, P is the certificate: by minimax, dist(0, S) is the best margin in the Frobenius
    unit ball, which holds the component unit ball scaled by 1 / sqrt(d n).  Sigma = {0} is a
    certificate at once; after ``WITNESS_ITERATIONS`` steps the search is undecided.
    """
    d, n, basis = bp.t.d, bp.t.n, bp.sigma_basis
    dim, size = d * n * n, bp.given.shape[1]
    mk = (bp.gram_map @ (basis[:dim] + 1j * basis[dim:])).T.reshape(-1, size, size)
    rows = ((mk + mk.conj().swapaxes(1, 2)) / 2.0).reshape(len(mk), size * size)  # M_k, Hermitian
    # s(v) = (tr(v v* M_k))_k, the point of the atom v v*, as conj(M_k) = M_k^T
    point = lambda v: (rows.conj() @ np.outer(v, v.conj()).reshape(-1)).real  # noqa: E731
    atoms, weights = np.eye(size, dtype=np.complex128), np.full(size, 1.0 / size)
    points = np.array([point(v) for v in atoms])
    for step in range(WITNESS_ITERATIONS):
        s = weights @ points
        dist = float(np.linalg.norm(s))
        if np.sqrt(d * n) * dist < INWARD_BETA:
            p = (weights * atoms.T) @ atoms.conj()
            return InwardWitnessResult(False, None, -np.inf, read_only(p))
        lams, vecs = np.linalg.eigh((s @ rows).reshape(size, size))
        if lams[0] >= dist**2 / 2.0:
            h = basis @ (-s / dist)
            k = MatrixTuple(tuple((h[:dim] + 1j * h[dim:]).reshape(d, n, n)))
            return _scored(bp, k * (1.0 / k.max_component_norm()))
        new, worst = point(vecs[:, 0]), int(np.argmax(points @ s))
        toward, away = s - new, points[worst] - s  # the Frank-Wolfe and away gaps are <s, .>
        if step and away @ s > toward @ s:
            most = weights[worst] / (1.0 - weights[worst])
            gamma = min(most, (away @ s) / (away @ away))
            weights = (1.0 + gamma) * weights
            weights[worst] = 0.0 if gamma == most else weights[worst] - gamma
        else:
            gamma = min(1.0, (s @ toward) / (toward @ toward))
            weights = np.append((1.0 - gamma) * weights, gamma)
            atoms, points = np.vstack([atoms, vecs[:, 0]]), np.vstack([points, new])
        kept = weights > 0.0
        atoms, points, weights = atoms[kept], points[kept], weights[kept]
    return InwardWitnessResult(False, None, -np.inf, None)


def sigma_span_dimension(bp: BoundaryPoint) -> int:
    """Complex dimension of the span of the self-adjointness cone at t.

    The constraint M(h) = M(h)* is real-linear; its real solution space is
    computed by SVD and the span dimension is the complex rank of a basis:
    its singular values above ``RANK_RTOL`` times the largest.
    """
    dim, basis = bp.t.d * bp.t.n * bp.t.n, bp.sigma_basis
    if basis.shape[1] == 0:
        return 0
    s = np.linalg.svd(basis[:dim] + 1j * basis[dim:], compute_uv=False)
    return int(np.count_nonzero(s > RANK_RTOL * s[0]))


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the inward-direction assumptions at a boundary point."""

    witness: InwardWitnessResult  # decided (witness or certificate) unless the cap ran out
    a2: bool
    sigma_span_dim: int
    full_dim: int

    @property
    def a1(self) -> bool:
        return self.witness.found

    @property
    def a(self) -> bool:
        return self.a1 and self.a2


def check_assumption_A(bp: BoundaryPoint) -> AssumptionReport:
    """Check that transverse inward directions exist and span everything.

    The first part is :func:`find_transverse_direction`: a witness, or a
    certificate that none exists, decided unless the iteration cap ran out
    (``witness.decided``).  The second part computes the complex span
    dimension of the self-adjointness cone and compares it with d * n^2.
    """
    if not bp.distinguished:
        raise PreconditionError("assumption checks require T on the distinguished boundary")
    witness = find_transverse_direction(bp)
    span, full = sigma_span_dimension(bp), bp.t.d * bp.t.n * bp.t.n
    return AssumptionReport(witness=witness, a2=span == full, sigma_span_dim=span, full_dim=full)


# --- approach sequences -----------------------------------------------------


class PointStack(NamedTuple):
    """Points of one matrix size as one stack, with their padded Delta and its norms."""

    components: np.ndarray  # (d, B, n, n): components[r] stacks variable r of the B points
    delta: np.ndarray  # (B, Jn, Jn): the padded Delta of each point
    norms: np.ndarray  # (B,): their ||Delta||

    def point(self, k: int) -> MatrixTuple:
        """Point k, built as a tuple where a caller reads one."""
        return MatrixTuple(tuple(self.components[:, k]))


class SequencePoints(NamedTuple):
    """The interior points of a path to ``base``, radial or along ``direction``."""

    base: MatrixTuple
    direction: MatrixTuple | None
    stack: PointStack  # the kept points
    steps: list
    dropped: int

    @property
    def kind(self) -> str:
        """The path kind: "radial" without a direction, "ray" with one."""
        return "radial" if self.direction is None else "ray"


def generate_sequence(
    delta: DeltaMatrix, t: MatrixTuple, direction: MatrixTuple | None, num_steps: int,
    first_step: float,
) -> SequencePoints:
    """The path to t with steps ``first_step`` * 2^-k, k < num_steps, kept where interior.

    Without a direction the path is radial, (1 - s) T at each step s; with a
    direction K it is a ray, T + s K.  The steps halve, as the limit
    extrapolation downstream requires.  Every check of the path runs here,
    and before any step is built: at least 2 steps, a positive last step, a
    direction of T's shape, and for a radial path a grid homogeneous of
    degree one (checked syntactically), so that scaling the point scales the
    defining matrix.  The points are built as one stack; a non-finite one is
    an error.  Dropped points are counted and warned about, and fewer than
    two interior points is an error.  Each norm, from one stacked Delta and
    one batched SVD, equals ``in_G_delta(delta, z).norm``.
    """
    if num_steps >= 2 and not first_step * 2.0 ** (1 - num_steps) > 0:
        raise PreconditionError("steps must be positive")
    if direction is not None and (direction.d != t.d or direction.n != t.n):
        raise DimensionError("direction must match the base point in d and n")
    if num_steps < 2:
        raise PreconditionError("need at least 2 steps")
    if direction is None and not delta.is_homogeneous_degree_one():
        raise PreconditionError("radial sequences require a grid homogeneous of degree one")
    if delta.d != t.d:
        raise DimensionError(f"delta has d={delta.d} but point has d={t.d}")
    steps = np.array([first_step * 2.0 ** (-k) for k in range(num_steps)])
    base = np.stack(t.components)[:, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite point is refused below
        if direction is None:
            comps = (1.0 - steps[:, None, None]) * base
        else:
            comps = base + steps[:, None, None] * np.stack(direction.components)[:, None]
    if not np.isfinite(comps).all():
        raise PreconditionError("a sequence point contains non-finite entries")
    big_delta = _eval_delta_stack(delta, comps)
    norms = operator_norm(big_delta)
    inside = norms < 1.0
    dropped = num_steps - int(inside.sum())
    if dropped:
        message = f"{dropped} of {num_steps} sequence points fell outside the domain"
        warnings.warn(message, GDeltaExitWarning, stacklevel=3)
    if not inside.any():
        raise PreconditionError("no sequence point lies inside the domain")
    if dropped > num_steps - 2:
        raise PreconditionError("need at least two interior sequence points")
    return SequencePoints(
        base=t,
        direction=direction,
        stack=PointStack(comps[:, inside], big_delta[inside], norms[inside]),
        steps=steps[inside].tolist(),
        dropped=dropped,
    )


# bytes of stacked arrays that one block may take: Gram map lifts with the grid at them,
# and (realization.solve_rows) points, sampled or not, with their Delta and model systems
BLOCK_BYTES = 8 << 20


def block_rows(row_bytes: int) -> int:
    """Rows of ``row_bytes`` each in one block of at most ``BLOCK_BYTES``; at least one."""
    return max(1, BLOCK_BYTES // row_bytes)


def random_interior_point(
    delta: DeltaMatrix, n: int, rng: np.random.Generator, margin: float = SAMPLE_MARGIN
) -> MatrixTuple:
    """A random point with ||delta(x)|| <= 1 - margin: one draft, scaled into the domain.

    The margin must lie in (0, 1) and n be at least 1, both checked before
    anything is drawn.
    """
    if not 0.0 < margin < 1.0:
        raise PreconditionError(f"sampling margin must lie in (0, 1), got {margin!r}")
    if n < 1:
        raise DimensionError(f"matrix size n must be at least 1, got {n!r}")
    return scale_into_domain(delta, gaussian_drafts(delta.d, n, rng, 1), margin).point(0)


def gaussian_drafts(d: int, n: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """The d complex Gaussian n x n matrices of ``count`` random points, (d, count, n, n).

    One call draws them all, point by point, in component order, each real
    part before its imaginary part.
    """
    g = rng.standard_normal((count, d, 2, n, n))
    return np.ascontiguousarray(((g[:, :, 0] + 1j * g[:, :, 1]) / np.sqrt(2.0)).swapaxes(0, 1))


def scale_into_domain(delta: DeltaMatrix, drafts: np.ndarray, margin: float) -> PointStack:
    """The (d, k, n, n) :func:`gaussian_drafts`, scaled into the domain, as one stack.

    One batched norm divides each component by max(1, its norm); then each
    halving round takes one stacked Delta and one batched SVD over the
    drafts not yet accepted, and halves the rest with ``0.5 *`` as
    ``MatrixTuple.__mul__`` does, until ||delta(x)|| <= 1 - margin, at most
    ``MAX_HALVINGS`` times.  Each row is bit-identical to scaling its draft
    alone.  When drafts fail, the error of the first failing row is raised.
    """
    d, k, n = drafts.shape[:3]
    comps = drafts / np.maximum(1.0, operator_norm(drafts)[..., None, None])
    scaled = np.empty_like(comps)
    big_out = np.empty((k, delta.J * n, delta.J * n), dtype=np.complex128)
    norms_out = np.empty(k)
    errors = {}
    rows = np.arange(k)
    for _ in range(MAX_HALVINGS):
        if not rows.size:
            break
        big_delta = _eval_delta_stack(delta, comps)
        finite = np.isfinite(big_delta).all(axis=(-2, -1))
        norms = np.zeros(rows.size)
        norms[finite] = operator_norm(big_delta if finite.all() else big_delta[finite])
        accept = finite & (norms <= 1.0 - margin)
        scaled[:, rows[accept]] = comps[:, accept]
        big_out[rows[accept]] = big_delta[accept]
        norms_out[rows[accept]] = norms[accept]
        errors.update((int(r), "matrix contains non-finite entries") for r in rows[~finite])
        halve = finite & ~accept
        rows = rows[halve]
        comps = 0.5 * comps[:, halve]
    errors.update((int(r), "could not scale a random point into the domain") for r in rows)
    if errors:
        raise PreconditionError(errors[min(errors)])
    return PointStack(scaled, big_out, norms_out)


# --- JSON wire format -------------------------------------------------------


def delta_to_json(delta: DeltaMatrix) -> dict:
    return {
        "d": delta.d,
        "J": delta.J,
        "entries": [[poly_to_json(p) for p in row] for row in delta.entries],
    }


def delta_from_json(obj) -> DeltaMatrix:
    """Decode a delta matrix; entries may be polynomial objects or grammar text.

    The decoded entries may hold at most ``MAX_TERMS`` terms in all; decoding
    stops at the entry that passes it.
    """
    if not isinstance(obj, dict):
        raise ParseError(f"expected a delta object, got {type(obj).__name__}")
    try:
        d = json_int(obj["d"], "delta variable count d", 1)
        grid = obj["entries"]
    except KeyError as exc:
        raise ParseError(f"delta object missing field: {exc}") from None
    if d > MAX_DELTA_VARIABLES:
        raise ParseError(f"delta variable count d must be at most {MAX_DELTA_VARIABLES}, got {d}")
    if not isinstance(grid, list) or not all(isinstance(row, list) for row in grid):
        raise ParseError("delta entries must be a grid of rows")
    if max([len(grid), *map(len, grid)]) > MAX_FAMILY_SIZE:
        raise ParseError(f"delta grid must have at most {MAX_FAMILY_SIZE} rows and columns")
    terms = 0

    def decoded(entry) -> FreePolynomial:
        nonlocal terms
        poly = poly_from_json(entry, d)
        terms += len(poly.terms)
        if terms > MAX_TERMS:
            raise ParseError(f"delta grid holds more than {MAX_TERMS} terms in all")
        return poly

    try:
        out = DeltaMatrix(d, [[decoded(p) for p in row] for row in grid])
    except DimensionError as exc:
        raise ParseError(str(exc)) from None
    if "J" in obj and json_int(obj["J"], "delta J", 1) != out.J:
        raise ParseError(f"delta lists J={obj['J']} but padded size is {out.J}")
    return out
