"""Dense complex-matrix kernels shared by the other modules.

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
    if not np.isfinite(a).all():
        raise PreconditionError(f"{name} contains non-finite entries")
    return a


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: for arrays that every holder of a shared result reads."""
    a.flags.writeable = False
    return a


def operator_norm(m):
    """Largest singular value; 0 for an empty or zero matrix.

    A matrix gives a float.  A stack (..., r, c) of matrices gives an array over
    its leading axes, from one batched SVD in complex128, as for a matrix.  The
    input is coerced once; a non-finite entry is refused as "matrix contains non-finite entries".
    """
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim < 2:
        a = as_complex_matrix(a)
    elif not np.isfinite(a).all():
        raise PreconditionError("matrix contains non-finite entries")
    if 0 in a.shape[-2:]:
        return 0.0 if a.ndim == 2 else np.zeros(a.shape[:-2])
    norms = np.linalg.svd(a, compute_uv=False)[..., 0]
    return float(norms) if a.ndim == 2 else norms


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


@dataclass(frozen=True)
class ExtrapolationResult:
    """First-order Richardson value plus raw Cauchy increments for diagnostics."""

    value: np.ndarray
    increments: tuple[float, ...]


def extrapolate_limit(steps, values) -> ExtrapolationResult:
    """Extrapolate lim_{t->0} f(t) from the values f(t) at steps t, t/2, t/4, ...

    ``values`` holds one row per step: scalars, vectors or matrices.  Assumes
    a first-order error model f(t) = L + c t + O(t^2): the last pair gives
    2 f(t/2) - f(t) = L + O(t^2).  Steps must strictly decrease with
    geometric ratio 2.
    """
    ts = [float(t) for t in steps]
    values = np.asarray(values, dtype=np.complex128)
    if len(ts) < 2:
        raise PreconditionError("need at least 2 samples to extrapolate")
    if not 1 <= values.ndim <= 3 or len(values) != len(ts):
        raise DimensionError(f"{len(ts)} steps but values of shape {values.shape}")
    for a, b in zip(ts, ts[1:]):
        if not (a > b > 0.0):
            raise PreconditionError("sample t values must be positive and strictly decreasing")
        if abs(a / b - 2.0) > 1e-6:
            raise PreconditionError(
                f"samples must be geometrically spaced with ratio 2, got {a / b:.6g}"
            )
    differences = values[1:] - values[:-1]
    if values.ndim < 3:  # a scalar or vector row is measured as a 1 x 1 or 1 x k matrix
        differences = differences.reshape(len(ts) - 1, 1, values[0].size)
    increments = tuple(operator_norm(differences).tolist())
    value = 2.0 * values[-1, ...] - values[-2, ...]  # a scalar row stays a 0-d array
    return ExtrapolationResult(value=value, increments=increments)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n x n unitary: QR of a complex Gaussian, phases fixed."""
    return haar_unitaries(n, [rng])[0]


def haar_unitaries(n: int, rngs) -> np.ndarray:
    """One :func:`haar_unitary` from each generator, stacked, by one batched QR.

    Each generator draws the real parts of its Gaussian, then the imaginary
    parts, in one call.
    """
    g = np.stack([rng.standard_normal((2, n, n)) for rng in rngs])
    q, r = np.linalg.qr((g[:, 0] + 1j * g[:, 1]) / np.sqrt(2.0))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


# --- JSON wire format ------------------------------------------------------
#
# A complex matrix travels as {"rows": r, "cols": c, "data": [[re, im], ...]}
# with entries in row-major order.


def json_int(value, name: str, minimum: int) -> int:
    """A JSON integer of at least ``minimum``; ParseError otherwise (bools are not integers)."""
    if type(value) is not int:
        raise ParseError(f"{name} must be an integer, got {value!r:.40}")
    if value < minimum:
        raise ParseError(f"{name} must be at least {minimum}, got {value!r:.40}")
    return value


def json_complex(pair, name: str) -> complex:
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
    rows, cols = json_int(rows, "matrix rows", 0), json_int(cols, "matrix cols", 0)
    if not isinstance(data, list) or len(data) != rows * cols:
        raise ParseError(f"matrix data must list {rows * cols} [re, im] pairs")
    flat = np.empty(rows * cols, dtype=np.complex128)
    for k, pair in enumerate(data):
        flat[k] = json_complex(pair, f"matrix entry {k}")
    return flat.reshape(rows, cols)
