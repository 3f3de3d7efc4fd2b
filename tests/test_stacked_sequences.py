"""Sequence diagnostics read one stacked evaluation; each equals its per-point loop, bit for bit.

The oracle evaluates every point of a sequence alone, with ``evaluate``, and
runs each diagnostic's per-point formula over the resulting list: the
quotient of each point, α, W, the TFAE suprema, the derivative ladder η and
the scalar angular derivative.  Results are compared as uint64 views, so
signed zeros and last bits count.
"""

import dataclasses
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from ncjulia import (
    AlphaEstimate,
    BoundaryValue,
    ConvergenceError,
    DeltaMatrix,
    MatrixTuple,
    NcFunctionHandle,
    PreconditionError,
    SingularMatrixError,
    TfaeReport,
    boundary_point,
    estimate_alpha,
    eta_numeric,
    evaluate,
    evaluate_sequence,
    extract_W,
    get_delta,
    haar_unitary,
    nearest_unitary,
    operator_norm,
    parse_poly,
    random_realization,
    scalar_angular_derivative,
    tfae_report,
)
from ncjulia import boundary, derivative
from ncjulia.domain import GDeltaExitWarning, SEQUENCE_FIRST_STEP

from conftest import extrapolate_pairs, random_matrix

GRIDS = ("polydisk:2", "ball:2", "cartan:2", "grid")


def grid_delta():
    """A 1 x 2 grid that is not homogeneous: constant, degree-one and degree-two words."""
    return DeltaMatrix(2, [[parse_poly("0.5*x0*x1 + 0.2", 2), parse_poly("x1^2 - 0.3i*x0", 2)]])


def boundary_case(name, n, rng):
    """The grid, a point T with ||Delta(T)|| = 1 and an inward direction T D.

    D is Hermitian and negative definite.  On the grids of degree one,
    Delta'(T)[T D] = Delta(T) (I kron D), so Delta(T)* Delta'(T)[T D] is I kron D
    at a distinguished T: the direction is in the transverse inward cone.
    """
    if name == "grid":  # Delta(T) = [0.2 I, c^2 V^2] with 0.04 + c^4 = 1
        v = haar_unitary(n, rng)
        return grid_delta(), MatrixTuple((0.0 * v, 0.96**0.25 * v)), None
    delta = get_delta(name)
    v = haar_unitary(n, rng)
    if name == "polydisk:2":
        t = (v, haar_unitary(n, rng))
    elif name == "ball:2":  # a column isometry
        u = haar_unitary(2 * n, rng)
        t = (u[:n, :n], u[n:, :n])
    else:  # cartan:2, Delta(T) = [[cV, isV], [isV, cV]]
        theta = rng.uniform(0.2, 1.3)
        t = (np.cos(theta) * v, 1j * np.sin(theta) * v, np.cos(theta) * v)
    g = random_matrix(rng, n)
    d = -(g @ g.conj().T + 0.2 * np.eye(n))
    d /= operator_norm(d)
    return delta, MatrixTuple(t), MatrixTuple(tuple(c @ d for c in t))


def bits(obj):
    """obj with every float and complex number, array or not, as its uint64 view."""
    if dataclasses.is_dataclass(obj):
        return {f.name: bits(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {k: bits(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [bits(v) for v in obj]
    if isinstance(obj, (bool, int, str, type(None))):
        return obj
    a = np.asarray(obj)
    assert a.dtype in (np.float64, np.complex128), a.dtype
    return (a.shape, np.ascontiguousarray(a).view(np.uint64).tolist())


def outcome(f, *args):
    """The bits of f(*args), or the class of the error it raises."""
    try:
        return bits(f(*args))
    except ValueError as exc:  # every error class of the package is a ValueError
        return type(exc).__name__


def looped(path):
    """Each point of the sequence evaluated alone."""
    stack = path.points.stack
    return [evaluate(path.h, stack.point(k)) for k in range(len(stack.norms))]


def looped_quotients(evs):
    quotients = []
    for ev in evs:
        numerator = operator_norm(np.eye(ev.phi.shape[-1]) - ev.phi.conj().T @ ev.phi)
        denominator = 1.0 - ev.delta_norm**2
        quotients.append((numerator / denominator, numerator, denominator))
    return quotients


def looped_alpha(path, evs):
    if len(evs) < 2:
        raise PreconditionError("need at least two interior sequence points")
    quotients = [value for value, _, _ in looped_quotients(evs)]
    is_liminf = path.points.kind == "radial" and path.h.delta.is_homogeneous_degree_one()
    diverging = False
    if len(quotients) >= 3:
        d_prev = quotients[-2] - quotients[-3]
        d_last = quotients[-1] - quotients[-2]
        significant = d_last > 1e-6 * max(1.0, abs(quotients[-1]))
        diverging = significant and d_prev > 0 and d_last >= 0.9 * d_prev
    alpha, increments, converged = float("inf"), (), False
    if not diverging:
        res = extrapolate_pairs(list(zip(path.points.steps, quotients)))
        alpha = float(np.real(res.value.reshape(())))
        increments = res.increments
        last_increment = increments[-1] if increments else 0.0
        converged = last_increment <= boundary.CONVERGENCE_RTOL * max(1.0, abs(alpha))
    return AlphaEstimate(alpha, increments, converged, diverging, is_liminf and not diverging)


def looped_W(steps, evs):
    if len(evs) < 2:
        raise PreconditionError("need at least two interior sequence points")
    raw = extrapolate_pairs(list(zip(steps, [ev.phi for ev in evs]))).value
    try:
        w = nearest_unitary(raw)
    except SingularMatrixError:
        raise ConvergenceError("singular limit") from None
    distance = operator_norm(raw - w)
    if distance > boundary.UNITARY_DISTANCE_TOL:
        raise ConvergenceError("limit far from unitary")
    return BoundaryValue(W=w, unitary_distance=distance)


def looped_tfae(path, evs, bp):
    sup_gram = sup_scalar = sup_model = 0.0
    aperture = 0.0
    for ev, (value, numerator, denominator) in zip(evs, looped_quotients(evs)):
        gram_defect = operator_norm(np.eye(bp.delta.shape[0]) - ev.delta.conj().T @ ev.delta)
        aperture = max(aperture, operator_norm(ev.delta - bp.delta) / denominator)
        sup_gram = max(sup_gram, numerator / gram_defect)
        sup_scalar = max(sup_scalar, value)
        sup_model = max(sup_model, operator_norm(ev.u) ** 2)
    if not np.isfinite(aperture) or aperture > boundary.APERTURE_CAP:
        raise PreconditionError("sequence is tangential")
    slack = lambda v: v * (1.0 + boundary.COMPARABILITY_RTOL) + 1e-15  # noqa: E731
    comparability = {
        "gram_le_scalar": bool(sup_gram <= slack(sup_scalar)),
        "scalar_le_2c_gram": bool(sup_scalar <= slack(2.0 * aperture * sup_gram)),
        "gram_le_model": bool(sup_gram <= slack(sup_model)),
        "model_le_scalar": bool(sup_model <= slack(sup_scalar)),
        "scalar_over_gram": sup_scalar / sup_gram if sup_gram else float("inf"),
        "model_over_gram": sup_model / sup_gram if sup_gram else float("inf"),
    }
    return TfaeReport(sup_gram, sup_scalar, sup_model, aperture, comparability)


def looped_eta(path, evs, w):
    steps = path.points.steps
    res = extrapolate_pairs(list(zip(steps, [(ev.phi - w) / s for s, ev in zip(steps, evs)])))
    return res.value, res.increments


def looped_angular(eta, converged, w):
    """<eta e_1, W e_1> of the looped eta, refused where its ladder did not converge."""
    if not converged:
        raise ConvergenceError("not Cauchy")
    v = np.zeros(len(w), dtype=np.complex128)
    v[0] = 1.0
    return complex((w @ v).conj() @ (eta @ v))


@settings(derandomize=True, max_examples=48, deadline=None)
@given(st.sampled_from(GRIDS), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_stacked_diagnostics_equal_the_per_point_loop(name, n, seed):
    rng = np.random.default_rng(seed)
    delta, t, direction = boundary_case(name, n, rng)
    h = NcFunctionHandle(random_realization(2, delta.J, seed), delta)
    bp = boundary_point(delta, t)
    # the 1 x 2 grid has no radial path, and no inward direction: its Delta(T)* Delta'(T)[H]
    # is 2n x 2n of rank at most n; its ray runs from T to -T
    rays = [-1.0 * t] if direction is None else [None, direction]
    for ray in rays:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GDeltaExitWarning)
            path = evaluate_sequence(h, t, ray, 12, SEQUENCE_FIRST_STEP)
        evs, q = looped(path), path.quotients
        assert len(path.points.steps) == len(evs)
        got = list(zip(q.value.tolist(), q.numerator.tolist(), q.denominator.tolist()))
        assert bits(got) == bits(looped_quotients(evs))
        assert outcome(estimate_alpha, path) == outcome(looped_alpha, path, evs)
        assert outcome(extract_W, path) == outcome(looped_W, path.points.steps, evs)
        assert outcome(tfae_report, path, bp) == outcome(looped_tfae, path, evs, bp)
    if direction is None:
        return
    w = haar_unitary(n, rng)
    ladder = derivative._admissible_ladder(h, t, direction, derivative.LADDER_FIRST_STEP, 10)
    res = eta_numeric(h, t, w, direction)
    expected = looped_eta(ladder, looped(ladder), w)
    assert bits((res.eta, res.convergence_increments)) == bits(expected)
    # at phi's unitary boundary value, where the ladder finds one, its quotients converge
    try:
        w = extract_W(ladder).W
    except ConvergenceError:
        pass  # no unitary limit: the Haar W above
    res = eta_numeric(h, t, w, direction)
    eta, increments = looped_eta(ladder, looped(ladder), w)
    assert bits((res.eta, res.convergence_increments)) == bits((eta, increments))
    assert outcome(scalar_angular_derivative, h, t, direction, w) == outcome(
        looped_angular, eta, res.converged, w
    )
