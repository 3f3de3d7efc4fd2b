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
