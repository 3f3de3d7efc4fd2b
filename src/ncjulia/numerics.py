"""Dense complex-matrix kernels used by every other module.

All norms are spectral (largest singular value); the Frobenius norm enters
only through the minimality property of the pseudoinverse solution in
:func:`min_norm_solve`.
"""

from __future__ import annotations

import cmath
import contextlib
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, ParseError, PreconditionError, SingularMatrixError

CONSISTENCY_TOL = 1e-8
RANK_RTOL = 1e-10
PINV_RTOL = 1e-12
COND_WARN_THRESHOLD = 1e12


def as_complex_matrix(m, name: str = "matrix") -> np.ndarray:
    """Coerce input to a 2-d complex128 array and reject non-finite entries.

    Scalars become 1x1 matrices and 1-d arrays become column vectors.
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(-1, 1)
    elif a.ndim != 2:
        raise DimensionError(f"{name} must be at most 2-dimensional, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a)):
        raise PreconditionError(f"{name} contains non-finite entries")
    return a


def operator_norm(m) -> float:
    """Largest singular value; 0 for an empty or zero matrix."""
    a = as_complex_matrix(m)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(a, compute_uv=False)[0])


def _operator_norms(stack: np.ndarray) -> np.ndarray:
    """Largest singular value of each matrix of a (B, r, c) stack, from one batched SVD.

    As in :func:`operator_norm`, an empty matrix has norm 0.
    """
    if 0 in stack.shape[-2:]:
        return np.zeros(stack.shape[0])
    return np.linalg.svd(stack, compute_uv=False)[:, 0]


def hermitian_part_min_eig(m) -> float:
    """Smallest eigenvalue of (M + M*)/2.  Requires a square matrix."""
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    if a.size == 0:
        return 0.0
    herm = (a + a.conj().T) / 2.0
    return float(np.linalg.eigvalsh(herm)[0])


def hermitian_part_max_eig(m) -> float:
    """Largest eigenvalue of (M + M*)/2; M is negative definite iff this is < 0."""
    return -hermitian_part_min_eig(-as_complex_matrix(m))


def is_self_adjoint(m, tol: float = CONSISTENCY_TOL) -> bool:
    """True iff ||M - M*|| <= tol (spectral norm)."""
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    return operator_norm(a - a.conj().T) <= tol


@dataclass(frozen=True)
class SolveOutcome:
    """Result of a minimum-norm least-squares solve.

    ``solution`` is orthogonal to the kernel of the system matrix (a property
    of the pseudoinverse), ``residual_norm`` is the spectral norm of
    ``M @ solution - b`` and ``consistent`` compares it against
    ``CONSISTENCY_TOL``.
    """

    solution: np.ndarray
    residual_norm: float
    consistent: bool


def min_norm_solve(m, b) -> SolveOutcome:
    """Minimum-Frobenius-norm solution of M x = b via SVD pseudoinverse.

    The relative singular-value cutoff is ``PINV_RTOL``, chosen small so the
    solve stays usable when the system matrix degenerates.
    """
    a = as_complex_matrix(m, "M")
    rhs = as_complex_matrix(b, "b")
    if a.shape[0] != rhs.shape[0]:
        raise DimensionError(
            f"row mismatch: M has {a.shape[0]} rows, b has {rhs.shape[0]}"
        )
    x = np.linalg.pinv(a, rcond=PINV_RTOL) @ rhs
    residual = operator_norm(a @ x - rhs)
    return SolveOutcome(solution=x, residual_norm=residual, consistent=residual <= CONSISTENCY_TOL)


def nearest_unitary(m) -> np.ndarray:
    """Unitary polar factor U of M = U P with P positive semidefinite.

    Raises SingularMatrixError when M is rank deficient relative to
    ``RANK_RTOL``, reporting the offending singular value.
    """
    a = as_complex_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {a.shape}")
    u, s, vh = np.linalg.svd(a)
    if s.size == 0 or s[-1] <= RANK_RTOL * s[0]:
        raise SingularMatrixError(
            "matrix is numerically rank deficient, polar factor undefined",
            smallest_singular_value=float(s[-1]) if s.size else 0.0,
        )
    return u @ vh


def numerical_rank(vectors, tol: float = RANK_RTOL) -> int:
    """Number of singular values of the stacked matrix above tol * sigma_max."""
    cols = [as_complex_matrix(v).reshape(-1) for v in vectors]
    if not cols:
        return 0
    if len({c.shape[0] for c in cols}) != 1:
        raise DimensionError("vectors must all have the same length")
    stacked = np.column_stack(cols)
    s = np.linalg.svd(stacked, compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > tol * s[0]))


@dataclass(frozen=True)
class ExtrapolationResult:
    """First-order Richardson value plus raw Cauchy increments for diagnostics."""

    value: np.ndarray
    increments: tuple[float, ...]


def extrapolate_limit(samples) -> ExtrapolationResult:
    """Extrapolate lim_{t->0} f(t) from samples at t, t/2, t/4, ...

    Assumes a first-order error model f(t) = L + c t + O(t^2): the last pair
    gives 2 f(t/2) - f(t) = L + O(t^2).  Samples must have strictly decreasing
    t with geometric ratio 2.
    """
    pairs = list(samples)
    if len(pairs) < 2:
        raise PreconditionError("need at least 2 samples to extrapolate")
    ts = [float(t) for t, _ in pairs]
    values = [np.asarray(v, dtype=np.complex128) for _, v in pairs]
    shapes = {v.shape for v in values}
    if len(shapes) != 1:
        raise DimensionError(f"sample values have mixed shapes {shapes}")
    for a, b in zip(ts, ts[1:]):
        if not (a > b > 0.0):
            raise PreconditionError("sample t values must be positive and strictly decreasing")
        if abs(a / b - 2.0) > 1e-6:
            raise PreconditionError(
                f"samples must be geometrically spaced with ratio 2, got {a / b:.6g}"
            )
    differences = np.stack([np.atleast_2d(v2 - v1) for v1, v2 in zip(values, values[1:])])
    increments = tuple(float(s) for s in _operator_norms(differences))
    value = 2.0 * values[-1] - values[-2]
    return ExtrapolationResult(value=value, increments=increments)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary: QR of a complex Gaussian, phases fixed."""
    g = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


# --- JSON wire format ------------------------------------------------------
#
# A complex matrix travels as {"rows": r, "cols": c, "data": [[re, im], ...]}
# with entries in row-major order.


def _json_int(value, name: str, minimum: int = 0) -> int:
    """A JSON integer of at least ``minimum``; ParseError otherwise (bools are not integers)."""
    if type(value) is not int:
        raise ParseError(f"{name} must be an integer, got {value!r:.40}")
    if value < minimum:
        raise ParseError(f"{name} must be at least {minimum}, got {value!r:.40}")
    return value


def _json_complex(pair, name: str) -> complex:
    """A complex number written as an [re, im] pair of finite JSON numbers; ParseError otherwise."""
    if isinstance(pair, list) and len(pair) == 2 and all(type(v) in (int, float) for v in pair):
        with contextlib.suppress(OverflowError):  # an integer beyond the float range
            z = complex(float(pair[0]), float(pair[1]))
            if cmath.isfinite(z):
                return z
    raise ParseError(f"{name} is not an [re, im] pair of numbers, or not finite")


def matrix_to_json(m) -> dict:
    a = as_complex_matrix(m)
    return {
        "rows": int(a.shape[0]),
        "cols": int(a.shape[1]),
        "data": [[float(z.real), float(z.imag)] for z in a.reshape(-1)],
    }


def matrix_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ParseError(f"expected a matrix object, got {type(obj).__name__}")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise ParseError(f"matrix object missing field: {exc}") from None
    rows, cols = _json_int(rows, "matrix rows"), _json_int(cols, "matrix cols")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(f"matrix data must list {rows * cols} [re, im] pairs")
    flat = np.empty(rows * cols, dtype=np.complex128)
    for k, pair in enumerate(data):
        flat[k] = _json_complex(pair, f"matrix entry {k}")
    return flat.reshape(rows, cols)
