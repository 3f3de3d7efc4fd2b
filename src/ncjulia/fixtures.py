"""Built-in domains and worked examples, wired as a named fixture registry.

Fixtures are constructed in code rather than loaded from data files so that
exact entries like 1/sqrt(2) carry no parse error.  Names:

* deltas: ``polydisk:<d>``, ``ball:<d>``, ``cartan:<J>``
* function fixtures: ``example-h1`` (a rational inner function of two
  non-commuting variables; its closed forms are the ``example_*`` functions
  defined here) and ``trivial-disk`` (the coordinate function of one variable)
* closed-form evaluators: ``example-h3-eta`` (the derivative of the
  ``example-h1`` function at the identity pair)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import MAX_FAMILY_SIZE, DeltaMatrix
from .errors import DimensionError, ParseError, PreconditionError, SingularMatrixError
from .errors import UnknownNameError
from .freepoly import FreePolynomial, MatrixTuple
from .realization import NcFunctionHandle, Realization


def polydisk_delta(d: int) -> DeltaMatrix:
    """Diagonal grid diag(x0, ..., x{d-1}); membership means every component is a strict contraction."""
    if d < 1:
        raise DimensionError("d must be at least 1")
    zero = FreePolynomial.zero(d)
    grid = [
        [FreePolynomial.variable(d, r) if r == c else zero for c in range(d)]
        for r in range(d)
    ]
    return DeltaMatrix(d, grid)


def ball_delta(d: int) -> DeltaMatrix:
    """Column grid (x0; ...; x{d-1}); membership means sum x^r* x^r < I."""
    if d < 1:
        raise DimensionError("d must be at least 1")
    grid = [[FreePolynomial.variable(d, r)] for r in range(d)]
    return DeltaMatrix(d, grid)


def cartan_delta(j: int) -> DeltaMatrix:
    """Symmetric J x J grid filled from d = J(J+1)/2 variables.

    Variable ordering is upper-triangle row-major: entry (0,0) is x0,
    entry (0,1) is x1, entry (1,1) is x2 for J = 2, and so on.
    """
    if j < 1:
        raise DimensionError("J must be at least 1")
    d = j * (j + 1) // 2
    index = {}
    k = 0
    for a in range(j):
        for b in range(a, j):
            index[(a, b)] = k
            index[(b, a)] = k
            k += 1
    grid = [
        [FreePolynomial.variable(d, index[(a, b)]) for b in range(j)] for a in range(j)
    ]
    return DeltaMatrix(d, grid)


def example_h1_realization() -> Realization:
    """Unitary colligation of the two-variable rational inner example (dim_E=1, J=2)."""
    s = 1.0 / np.sqrt(2.0)
    return Realization(
        dim_E=1,
        J=2,
        A=np.array([[0.0]]),
        B=np.array([[s, s]]),
        C=np.array([[s], [s]]),
        D=np.array([[0.5, -0.5], [-0.5, 0.5]]),
    )


def trivial_disk_realization() -> Realization:
    """The coordinate function of one variable on the disk: phi(x) = x."""
    return Realization(
        dim_E=1,
        J=1,
        A=np.array([[0.0]]),
        B=np.array([[1.0]]),
        C=np.array([[1.0]]),
        D=np.array([[0.0]]),
    )


def example_f(z: complex, w: complex) -> complex:
    """Scalar rational inner function f(z, w) = (z + w - 2wz) / (2 - z - w)."""
    den = 2.0 - z - w
    if abs(den) < 1e-14:
        raise PreconditionError("pole: 2 - z - w vanishes")
    return (z + w - 2.0 * w * z) / den


def _require_invertible(m: np.ndarray, name: str):
    """SingularMatrixError unless m has condition number at most 1e14."""
    sv = np.linalg.svd(m, compute_uv=False)
    if sv[-1] == 0.0 or sv[0] / sv[-1] > 1e14:
        raise SingularMatrixError(
            f"{name} is numerically singular", smallest_singular_value=float(sv[-1])
        )


def _solve_right(numerator: np.ndarray, m: np.ndarray) -> np.ndarray:
    """numerator @ inv(m), guarding against a numerically singular m."""
    _require_invertible(m, "resolvent")
    return np.linalg.solve(m.T, numerator.T).T


def example_phi_closed(z: MatrixTuple) -> np.ndarray:
    """Closed form (Z1 + Z2)/2 + (Z1 - Z2)(2 - Z1 - Z2)^{-1}(Z1 - Z2)/2.

    Agrees with the transfer-function evaluation of ``example-h1`` wherever
    both are defined, and with f on commuting variables.
    """
    if z.d != 2:
        raise DimensionError("closed form needs a pair of matrices")
    z1, z2 = z.components
    eye = np.eye(z.n, dtype=np.complex128)
    diff = z1 - z2
    resolvent = 2.0 * eye - z1 - z2
    _require_invertible(resolvent, "2 - Z1 - Z2")
    return 0.5 * (z1 + z2) + 0.5 * diff @ np.linalg.solve(resolvent, diff)


def example_psi(z: MatrixTuple) -> np.ndarray:
    """The companion extension (Z1 + Z2 - Z1 Z2 - Z2 Z1)(2 - Z1 - Z2)^{-1}.

    Agrees with f on commuting variables but is not bounded by one on the
    domain; it serves as the negative control for the contractivity checks.
    """
    if z.d != 2:
        raise DimensionError("closed form needs a pair of matrices")
    z1, z2 = z.components
    eye = np.eye(z.n, dtype=np.complex128)
    numerator = z1 + z2 - z1 @ z2 - z2 @ z1
    return _solve_right(numerator, 2.0 * eye - z1 - z2)


def example_eta(h: MatrixTuple) -> np.ndarray:
    """Closed-form derivative of the example at the identity pair.

    eta(H) = (H1 + H2)/2 - (H1 - H2)(H1 + H2)^{-1}(H1 - H2)/2, defined when
    H1 + H2 is invertible; exactly homogeneous of degree one.
    """
    if h.d != 2:
        raise DimensionError("closed form needs a pair of matrices")
    h1, h2 = h.components
    s = h1 + h2
    _require_invertible(s, "H1 + H2")
    diff = h1 - h2
    return 0.5 * s - 0.5 * diff @ np.linalg.solve(s, diff)


@dataclass(frozen=True)
class Fixture:
    """A named delta and realization."""

    name: str
    delta: DeltaMatrix
    realization: Realization

    @property
    def handle(self) -> NcFunctionHandle:
        return NcFunctionHandle(realization=self.realization, delta=self.delta)


def _build_fixtures() -> dict:
    h1 = Fixture(
        name="example-h1",
        delta=polydisk_delta(2),
        realization=example_h1_realization(),
    )
    disk = Fixture(
        name="trivial-disk",
        delta=polydisk_delta(1),
        realization=trivial_disk_realization(),
    )
    return {f.name: f for f in (h1, disk)}


_FIXTURES = _build_fixtures()

CLOSED_FORMS = {
    "example-h3-eta": example_eta,
}

_DELTA_FAMILIES = {
    "polydisk": polydisk_delta,
    "ball": ball_delta,
    "cartan": cartan_delta,
}


def list_fixtures() -> list:
    """All addressable names: function fixtures, delta families, closed forms."""
    return sorted(_FIXTURES) + sorted(f"{k}:<size>" for k in _DELTA_FAMILIES) + sorted(CLOSED_FORMS)


def get_fixture(name: str) -> Fixture:
    if name not in _FIXTURES:
        raise UnknownNameError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(_FIXTURES))}"
        )
    return _FIXTURES[name]


def get_delta(name: str) -> DeltaMatrix:
    """Resolve a delta by name: a fixture name or 'family:size'."""
    if name in _FIXTURES:
        return _FIXTURES[name].delta
    if ":" in name:
        family, _, size = name.partition(":")
        if family in _DELTA_FAMILIES:
            try:
                k = int(size)
            except ValueError:
                raise ParseError(f"malformed delta size in {name!r}") from None
            if k > MAX_FAMILY_SIZE:
                raise ParseError(f"delta size in {name!r} exceeds the maximum {MAX_FAMILY_SIZE}")
            try:
                return _DELTA_FAMILIES[family](k)
            except DimensionError as exc:
                raise ParseError(str(exc)) from None
    raise UnknownNameError(
        f"unknown delta {name!r}; use a fixture name or one of "
        f"{', '.join(sorted(_DELTA_FAMILIES))}:<size>"
    )


def get_closed_form(name: str):
    if name not in CLOSED_FORMS:
        raise UnknownNameError(
            f"unknown closed form {name!r}; available: {', '.join(sorted(CLOSED_FORMS))}"
        )
    return CLOSED_FORMS[name]
