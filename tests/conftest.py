"""Shared random generators for the test suite (all seeded, all deterministic)."""

import numpy as np
import pytest

from ncjulia import DeltaMatrix, FreePolynomial, MatrixTuple, parse_poly


def random_matrix(rng, n, m=None):
    m = n if m is None else m
    return (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / np.sqrt(2.0)


def random_contraction(rng, n, max_norm=0.95):
    g = random_matrix(rng, n)
    return g * (max_norm * rng.uniform(0.2, 1.0) / max(1e-12, np.linalg.norm(g, 2)))


def random_tuple(rng, d, n, max_norm=0.95):
    return MatrixTuple(tuple(random_contraction(rng, n, max_norm) for _ in range(d)))


def random_unitary_tuple(rng, d, n):
    from ncjulia import haar_unitary

    return MatrixTuple(tuple(haar_unitary(n, rng) for _ in range(d)))


def random_coefficient(rng):
    kind = int(rng.integers(0, 4))
    if kind == 0:
        value = complex(int(rng.integers(-5, 6)), 0.0)
    elif kind == 1:
        value = complex(float(rng.standard_normal()), 0.0)
    elif kind == 2:
        value = complex(0.0, float(rng.standard_normal()))
    else:
        value = complex(float(rng.standard_normal()), float(rng.standard_normal()))
    return value


def random_poly(rng, d, max_degree=4, max_terms=5):
    terms = {}
    for _ in range(int(rng.integers(0, max_terms + 1))):
        length = int(rng.integers(0, max_degree + 1))
        word = tuple(int(rng.integers(0, d)) for _ in range(length))
        coeff = random_coefficient(rng)
        if coeff != 0:
            terms[word] = coeff
    return FreePolynomial(d, tuple(terms.items()))


def witness_grid():
    """diag(x0, 3 x1 - 2 x1^2): at T = (1, 1) -T fails and the witness search must run."""
    zero = FreePolynomial.zero(2)
    return DeltaMatrix(
        2, [[FreePolynomial.variable(2, 0), zero], [zero, parse_poly("3*x1 - 2*x1^2", 2)]]
    )


def random_admissible_direction(rng, n, d=2, shift=0.3):
    """Direction tuple with negative-definite Hermitian parts, max norm <= 1."""
    comps = []
    for _ in range(d):
        g = random_matrix(rng, n)
        top = np.linalg.eigvalsh((g + g.conj().T) / 2.0)[-1]
        m = g - (top + shift) * np.eye(n)
        comps.append(m / max(1.0, np.linalg.norm(m, 2)))
    return MatrixTuple(tuple(comps))


def near_identity(rng, n, scale=0.2):
    return np.eye(n, dtype=np.complex128) + scale * random_matrix(rng, n)


def extrapolate_pairs(samples):
    """Oracle: ``extrapolate_limit`` in its former pair form, over (t, f(t)) samples.

    Each value is coerced on its own and each difference is measured as at
    least a 2-d matrix, by one batched SVD of them all.
    """
    from ncjulia import DimensionError, ExtrapolationResult, PreconditionError

    pairs = list(samples)
    if len(pairs) < 2:
        raise PreconditionError("need at least 2 samples to extrapolate")
    ts = [float(t) for t, _ in pairs]
    values = [np.asarray(v, dtype=np.complex128) for _, v in pairs]
    if len({v.shape for v in values}) != 1:
        raise DimensionError("sample values have mixed shapes")
    for a, b in zip(ts, ts[1:]):
        if not (a > b > 0.0) or abs(a / b - 2.0) > 1e-6:
            raise PreconditionError("steps must decrease with ratio 2")
    differences = np.stack([np.atleast_2d(b - a) for a, b in zip(values, values[1:])])
    if not np.isfinite(differences).all():
        raise PreconditionError("matrix contains non-finite entries")
    if differences.size:
        increments = tuple(float(s) for s in np.linalg.svd(differences, compute_uv=False)[:, 0])
    else:  # empty matrices have norm 0
        increments = (0.0,) * len(differences)
    return ExtrapolationResult(value=2.0 * values[-1] - values[-2], increments=increments)


def kernel_bases(matrix):
    """Oracle: orthonormal kernel and cokernel bases of a square matrix, from their own SVD."""
    from ncjulia.numerics import PINV_RTOL

    u, s, vh = np.linalg.svd(matrix)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(matrix.shape[0]), np.eye(matrix.shape[0])
    mask = s <= PINV_RTOL * s[0] * max(matrix.shape) ** 0.5
    return vh.conj().T[:, mask], u[:, mask]


def solve_uT_three_svds(h, bp):
    """Oracle: ``boundary_model``'s (u_T, residual, orthogonality, defect), from three SVDs.

    A norm test, ``min_norm_solve`` and :func:`kernel_bases` each factor the system.
    """
    from ncjulia import min_norm_solve, operator_norm
    from ncjulia.numerics import PINV_RTOL
    from ncjulia.realization import model_operators

    resolvent, rhs, _ = model_operators(h.realization, bp.delta, bp.t.n)
    if operator_norm(resolvent) <= PINV_RTOL:
        resolvent = np.zeros_like(resolvent)
    outcome = min_norm_solve(resolvent, rhs)
    kernel, cokernel = kernel_bases(resolvent)
    orthogonality = (
        operator_norm(kernel.conj().T @ outcome.solution) if kernel.shape[1] else 0.0
    )
    if kernel.shape[1] or cokernel.shape[1]:
        defect = operator_norm(kernel @ kernel.conj().T - cokernel @ cokernel.conj().T)
    else:
        defect = 0.0
    return outcome.solution, outcome.residual_norm, orthogonality, defect


def padded_model_solution(h, big_delta, n):
    """Oracle: u and phi from the whole model system at the padded Delta, one solve.

    The (mJn) x (mJn) system I - (D kron I_n)(I_m kron Delta) is solved as it
    stands, padding columns and all; Delta may be stacked.
    """
    from ncjulia.realization import model_operators, phi_from

    resolvent, rhs, _ = model_operators(h.realization, big_delta, n)
    u = np.linalg.solve(resolvent, np.broadcast_to(rhs, resolvent.shape[:-1] + rhs.shape[-1:]))
    return u, phi_from(h.realization, big_delta, u, n)


def padded_condition(h, ev):
    """Oracle: the condition number of one point's whole padded model system, by its full SVD."""
    from ncjulia.realization import model_operators

    resolvent = model_operators(h.realization, ev.delta, ev.phi.shape[-1])[0]
    sv = np.linalg.svd(resolvent, compute_uv=False)
    return float(sv[0] / sv[-1])


def stack_points(stack):
    """The points of a ``PointStack``, each as a tuple."""
    return [stack.point(k) for k in range(len(stack.norms))]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def sequential_interior_sample(delta, n, rng, margin=0.05, max_halvings=60):
    """Oracle: one random interior point drawn and scaled one halving at a time.

    A copy of the sequential sampler that ``random_interior_point`` replaced
    with a stacked one; returns the point, Delta(x), ||Delta(x)|| and the
    number of Delta evaluations (halving rounds) that it took.
    """
    from ncjulia import PreconditionError, eval_delta, operator_norm

    comps = []
    for _ in range(delta.d):
        g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
        comps.append(g / max(1.0, operator_norm(g)))
    x = MatrixTuple(tuple(comps))
    for rounds in range(1, max_halvings + 1):
        big_delta = eval_delta(delta, x)
        norm = operator_norm(big_delta)
        if norm <= 1.0 - margin:
            return x, big_delta, norm, rounds
        x = 0.5 * x
    raise PreconditionError("could not scale a random point into the domain")


def looped_julia_sweep(h, rng, count, bp, w, alpha, model=None):
    """Oracle: ``julia_sweep`` as a loop over :func:`sequential_interior_sample` points.

    Each point is evaluated by ``evaluate`` and checked by
    ``julia_inequality_check``, with ``boundary_identity_residual`` at the
    points not skipped when the boundary model is given.
    """
    from ncjulia import boundary_identity_residual, evaluate, julia_inequality_check
    from ncjulia.boundary import JuliaSweep

    checked = violations = skipped = 0
    ratios, residuals = [], []
    for _ in range(count):
        ev = evaluate(h, sequential_interior_sample(h.delta, bp.t.n, rng)[0])
        check = julia_inequality_check(ev, bp, w, alpha)
        if check.skipped:
            skipped += 1
            continue
        checked += 1
        violations += not check.holds
        if check.rhs > 0:
            ratios.append(check.lhs / check.rhs)
        if model is not None:
            residuals.append(boundary_identity_residual(model, w, ev))
    return JuliaSweep(
        checked, violations, skipped, max(ratios, default=None), max(residuals, default=None)
    )


def solve_budget(h, n, rows, dim_E=None):
    """A ``BLOCK_BYTES`` of ``rows`` rows of ``realization.solve_rows`` at matrix size n.

    h is a handle, or a grid with the colligations' ``dim_E``.  A row holds a point of
    the grid and its padded Delta, the active columns (e, k < c, l) of its model system
    and step, and its right-hand side and u (mJn x n each).
    """
    grid, m = (h, dim_E) if dim_E is not None else (h.delta, h.realization.dim_E)
    jn, cn = grid.J * n, len(grid.entries[0]) * n
    return rows * 16 * (grid.d * n * n + jn * jn + 2 * m**2 * jn * cn + 2 * m * jn * n)


# --- the tiny-matrix kernels before they skipped work that changes no bit, kept as oracles ---


def eval_words_oracle(p, components):
    """Oracle: p at components (..., n, n), each word's product started at I."""
    acc = np.zeros(components[0].shape, dtype=np.complex128)
    eye = np.eye(acc.shape[-1], dtype=np.complex128)
    for word, coeff in p.terms:
        m = eye
        for letter in word:
            m = m @ components[letter]
        acc += coeff * m
    return acc


def eval_delta_oracle(delta, components):
    """Oracle: the padded grid at components (..., n, n), every entry evaluated, zero ones too."""
    lead, n = components[0].shape[:-2], components[0].shape[-1]
    out = np.zeros(lead + (delta.J * n, delta.J * n), dtype=np.complex128)
    for a, row in enumerate(delta.entries):
        for b, p in enumerate(row):
            out[..., a * n : (a + 1) * n, b * n : (b + 1) * n] = eval_words_oracle(p, components)
    return out


def max_component_norm_oracle(x):
    """Oracle: max_r ||x^r||, one SVD per component."""
    from ncjulia import operator_norm

    return max(operator_norm(c) for c in x.components)


def assert_same_bits(got, want):
    """Equal arrays whose real and imaginary parts carry equal signs, zeros included."""
    assert got.shape == want.shape and np.array_equal(got, want)
    for a, b in ((got.real, want.real), (got.imag, want.imag)):
        assert np.array_equal(np.signbit(a), np.signbit(b))


# --- the inward-cone formulas before domain.inward_margin, kept as an oracle ---


def hermitian_part_min_eig(m) -> float:
    """Oracle: smallest eigenvalue of (M + M*)/2.  Requires a square matrix."""
    from ncjulia import DimensionError
    from ncjulia.numerics import as_complex_matrix

    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    herm = (a + a.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm)[0])


def hermitian_part_max_eig(m) -> float:
    """Oracle: largest eigenvalue of (M + M*)/2, as minus the smallest of -M's."""
    from ncjulia.numerics import as_complex_matrix

    return -hermitian_part_min_eig(-as_complex_matrix(m))


def is_self_adjoint(m, tol: float = 1e-8) -> bool:
    """Oracle: ||M - M*|| <= tol (spectral norm)."""
    from ncjulia import DimensionError, operator_norm
    from ncjulia.numerics import as_complex_matrix

    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return operator_norm(a - a.conj().T) <= tol


def numerical_rank(vectors, tol: float = 1e-10) -> int:
    """Oracle: singular values of the stacked vectors above tol * sigma_max."""
    from ncjulia import DimensionError
    from ncjulia.numerics import as_complex_matrix

    cols = [as_complex_matrix(v).reshape(-1) for v in vectors]
    if not cols:
        return 0
    if len({c.shape[0] for c in cols}) != 1:
        raise DimensionError("vectors must all have the same length")
    s = np.linalg.svd(np.column_stack(cols), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


def in_delta_oracle(bp, h, beta: float = 1e-8) -> bool:
    """Oracle: the transverse inward cone, self-adjoint within 1e-8 and Hermitian part <= -beta."""
    from ncjulia.domain import SELF_ADJOINT_TOL, cone_matrix

    m = cone_matrix(bp, h)
    return is_self_adjoint(m, SELF_ADJOINT_TOL) and hermitian_part_max_eig(m) <= -beta


ORACLE_DESCENT_ITERATIONS = 150  # subgradient steps per start of the descent oracle


def find_transverse_direction_oracle(bp, n_starts: int = 50, seed: int = 0):
    """Oracle: a seeded witness search that finds witnesses but never certifies their absence.

    After -T it runs projected subgradient descent on the largest eigenvalue of
    the Hermitian part from ``n_starts`` random starts, with a repair projection
    onto the self-adjointness subspace, and scores candidates by the largest
    Hermitian-part eigenvalue.  ``certificate`` is always None.
    """
    from ncjulia import operator_norm
    from ncjulia.domain import (
        INWARD_BETA, SELF_ADJOINT_TOL, InwardWitnessResult, cone_matrix,
    )

    t = bp.t
    d, n = t.d, t.n
    dim = d * n * n

    def to_tuple(vec):
        return MatrixTuple(tuple(vec.reshape(d, n, n)[r] for r in range(d)))

    def to_unit_ball(vec):
        comps = vec.reshape(d, n, n).copy()
        for r in range(d):
            u, s, vh = np.linalg.svd(comps[r])
            comps[r] = u @ np.diag(np.minimum(s, 1.0)) @ vh
        return comps.reshape(-1)

    best_val, best_k = np.inf, None

    def consider(k):
        nonlocal best_val, best_k
        m = cone_matrix(bp, k)
        top_eig, sym_defect = hermitian_part_max_eig(m), operator_norm(m - m.conj().T)
        if sym_defect <= SELF_ADJOINT_TOL and top_eig < best_val:
            best_val, best_k = top_eig, k
        return top_eig, sym_defect

    neg_t = -1.0 * t
    nrm = neg_t.max_component_norm()
    if nrm > 0:
        consider(neg_t * min(1.0, 1.0 / nrm))
    if best_val <= -INWARD_BETA:
        return InwardWitnessResult(found=True, witness=best_k, beta=-best_val, certificate=None)

    lmat = bp.gram_map
    gram_dim = bp.given.shape[1]
    rng = np.random.default_rng(seed)
    for _ in range(n_starts):
        vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vec = to_unit_ball(vec)
        for it in range(ORACLE_DESCENT_ITERATIONS):
            m = (lmat @ vec).reshape(gram_dim, gram_dim)
            herm = (m + m.conj().T) / 2.0
            _, evecs = np.linalg.eigh(herm)
            top = evecs[:, -1]
            grad = lmat.conj().T @ np.outer(top, top.conj()).reshape(-1)
            vec = to_unit_ball(vec - (0.5 / np.sqrt(it + 1.0)) * grad)
        top_eig, sym_defect = consider(to_tuple(vec))
        if sym_defect > SELF_ADJOINT_TOL and top_eig < 0:
            proj = bp.sigma_basis @ (bp.sigma_basis.T @ np.concatenate([vec.real, vec.imag]))
            repaired = proj[:dim] + 1j * proj[dim:]
            if np.linalg.norm(repaired) > 0:
                consider(to_tuple(to_unit_ball(repaired)))
        if best_val <= -INWARD_BETA:
            break
    return InwardWitnessResult(
        found=best_val <= -INWARD_BETA, witness=best_k, beta=-best_val, certificate=None
    )


def sigma_span_dimension_oracle(bp) -> int:
    """Oracle: the complex rank of the self-adjointness basis, column by column."""
    dim = bp.t.d * bp.t.n * bp.t.n
    if bp.sigma_basis.shape[1] == 0:
        return 0
    return numerical_rank([col[:dim] + 1j * col[dim:] for col in bp.sigma_basis.T])
