"""Oracles of the nc axioms and of the transfer-function formula, for the test suite.

An nc function respects direct sums and similarities: :func:`direct_sum` and
:func:`similarity` build the points those checks compare.  A function given
by a colligation is its transfer-function formula: :func:`eval_phi_neumann`
sums the formula's geometric series, independently of the model solve that
``realization.evaluate`` makes.
"""

from dataclasses import dataclass

import numpy as np

from ncjulia import (
    DimensionError,
    MatrixTuple,
    PreconditionError,
    SingularMatrixError,
    eval_delta,
    operator_norm,
)
from ncjulia.numerics import as_complex_matrix
from ncjulia.realization import _require_interior, model_operators, phi_from


def direct_sum(x: MatrixTuple, y: MatrixTuple) -> MatrixTuple:
    """Componentwise block-diagonal tuple of size x.n + y.n."""
    if x.d != y.d:
        raise DimensionError(f"variable counts differ: {x.d} vs {y.d}")
    out = []
    for a, b in zip(x.components, y.components):
        block = np.zeros((x.n + y.n, x.n + y.n), dtype=np.complex128)
        block[: x.n, : x.n] = a
        block[x.n :, x.n :] = b
        out.append(block)
    return MatrixTuple(tuple(out))


def similarity(x: MatrixTuple, s) -> MatrixTuple:
    """The conjugated tuple (s^-1 x^1 s, ..., s^-1 x^d s)."""
    m = as_complex_matrix(s, "s")
    if m.shape != (x.n, x.n):
        raise DimensionError(f"s has shape {m.shape}, expected ({x.n}, {x.n})")
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e12:
        raise SingularMatrixError(
            "similarity matrix is numerically singular",
            smallest_singular_value=float(sv[-1]),
        )
    return MatrixTuple(tuple(np.linalg.solve(m, c @ m) for c in x.components))


@dataclass(frozen=True)
class NeumannEvaluation:
    """Truncated geometric-series evaluation, with its a-priori error bound."""

    value: np.ndarray
    truncation_bound: float
    contraction_factor: float
    terms: int


def eval_phi_neumann(h, x: MatrixTuple, terms: int) -> NeumannEvaluation:
    """Evaluate phi by summing the geometric series of (D kron I)(I kron Delta).

    Independent of the direct solve in ``realization.evaluate``; usable only
    when the contraction factor q is < 1, with truncation bound q^(terms+1) / (1 - q).
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
    value = phi_from(h.realization, big_delta, acc, n)
    bound = q ** (terms + 1) / (1.0 - q)
    return NeumannEvaluation(
        value=value, truncation_bound=float(bound), contraction_factor=float(q), terms=terms
    )
