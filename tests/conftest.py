"""Shared random generators for the test suite (all seeded, all deterministic)."""

import numpy as np
import pytest

from ncjulia import FreePolynomial, MatrixTuple


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
    """Oracle: ``solve_uT`` in its former form, (u_T, residual, orthogonality, defect).

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
