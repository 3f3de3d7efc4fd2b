import time
import warnings

import numpy as np
import pytest

from ncjulia import (
    ConvergenceError,
    DimensionError,
    MatrixTuple,
    NcFunctionHandle,
    PreconditionError,
    Realization,
    eta_numeric,
    eval_phi,
    evaluate,
    evaluate_sequence,
    example_eta,
    extract_W,
    extrapolate_limit,
    get_fixture,
    homogeneity_check,
    in_G_delta,
    operator_norm,
    polydisk_delta,
    scalar_angular_derivative,
)

from ncjulia.derivative import STEP_FLOOR, _admissible_ladder
from ncjulia.domain import GDeltaExitWarning

from conftest import random_admissible_direction


@pytest.fixture
def h1():
    return get_fixture("example-h1").handle


@pytest.fixture
def disk():
    return get_fixture("trivial-disk").handle


def scalars(*zs):
    return MatrixTuple.from_scalars(zs)


def identity_pair(n):
    return MatrixTuple((np.eye(n),) * 2)


class TestEtaNumeric:
    def test_diagonal_ray(self, h1):
        # phi((1-t), (1-t)) = 1 - t, so the derivative along (-1, -1) is -1
        res = eta_numeric(h1, scalars(1.0, 1.0), np.eye(1), scalars(-1.0, -1.0))
        assert res.eta[0, 0] == pytest.approx(-1.0, abs=1e-8)
        assert res.beta == pytest.approx(1.0)
        assert res.converged

    def test_matches_closed_form(self, h1, rng):
        for n in (1, 2, 3):
            t, w = identity_pair(n), np.eye(n)
            for _ in range(10):
                direction = random_admissible_direction(rng, n)
                res = eta_numeric(h1, t, w, direction)
                oracle = example_eta(direction)
                scale = max(1.0, operator_norm(oracle))
                assert operator_norm(res.eta - oracle) / scale <= 1e-6

    def test_not_inward_rejected(self, h1):
        with pytest.raises(PreconditionError, match="not inward"):
            eta_numeric(h1, scalars(1.0, 1.0), np.eye(1), scalars(1j, 1j))

    def test_short_ladder_and_w_of_another_size_rejected(self, h1):
        t, direction = scalars(1.0, 1.0), scalars(-1.0, -1.0)
        with pytest.raises(PreconditionError, match="at least 2 ladder steps"):
            eta_numeric(h1, t, np.eye(1), direction, steps=1)
        with pytest.raises(DimensionError, match=r"W has shape \(2, 2\), expected \(1, 1\)"):
            eta_numeric(h1, t, np.eye(2), direction)

    def test_oversized_direction_rejected(self, h1):
        with pytest.raises(PreconditionError, match="unit ball"):
            eta_numeric(h1, scalars(1.0, 1.0), np.eye(1), scalars(-2.0, -2.0))

    def test_t_off_the_boundary_rejected(self, h1):
        # (-0.5, -0.5) is inward at the interior (0.5, 0.5), whose ladder would extrapolate
        # a meaningless eta; T is refused as analyze_bpoint refuses it
        direction = scalars(-0.5, -0.5)
        with pytest.raises(PreconditionError, match=r"T is interior \(\|\|delta\(T\)\|\| = 0.5\)"):
            eta_numeric(h1, scalars(0.5, 0.5), np.eye(1), direction)
        with pytest.raises(PreconditionError, match="T is outside the closed domain"):
            eta_numeric(h1, scalars(1.5, 0.5), np.eye(1), direction)

    def test_ladder_independence(self, h1, rng):
        t, w = identity_pair(2), np.eye(2)
        direction = random_admissible_direction(rng, 2)
        res_a = eta_numeric(h1, t, w, direction, first_step=1e-2)
        res_b = eta_numeric(h1, t, w, direction, first_step=1e-2 / 3.0)
        assert operator_norm(res_a.eta - res_b.eta) <= 1e-6

    def test_increments_decrease_when_converged(self, h1, rng):
        t, w = identity_pair(2), np.eye(2)
        direction = random_admissible_direction(rng, 2)
        res = eta_numeric(h1, t, w, direction, first_step=0.05)
        assert res.converged
        inc = res.convergence_increments
        # away from the noise floor the increments shrink roughly geometrically
        head = [d for d in inc if d > 1e-9]
        for a, b in zip(head, head[1:]):
            assert b <= 0.75 * a

    def test_each_ladder_point_evaluated_once(self, h1, monkeypatch):
        from ncjulia import boundary, derivative, domain, realization

        # points evaluated by evaluate (one each) and rows of the evaluations that
        # evaluate_stack returns
        calls = {"evaluate": 0, "in_G_delta": 0}
        counters = (
            ("evaluate", realization, "evaluate", lambda result: 1),
            ("evaluate_stack", boundary, "evaluate", lambda result: len(result.phi)),
            ("in_G_delta", domain, "in_G_delta", lambda result: 1),
        )
        for name, home, key, points in counters:
            def counted(*args, _key=key, _points=points, _original=getattr(home, name), **kwargs):
                result = _original(*args, **kwargs)
                calls[_key] += _points(result)
                return result

            for module in (home, derivative):
                monkeypatch.setattr(module, name, counted, raising=False)
        eta_numeric(h1, scalars(1.0, 1.0), np.eye(1), scalars(-1.0, -1.0), steps=10)
        # the evaluation of a ladder point is also its membership test
        assert calls == {"evaluate": 10, "in_G_delta": 0}

    def test_quotients_match_eval_phi(self, h1, rng):
        t, w = identity_pair(2), np.eye(2)
        direction = random_admissible_direction(rng, 2)
        for first_step in (1e-2, 0.9):
            res = eta_numeric(h1, t, w, direction, first_step=first_step)
            ladder = [res.first_step * 2.0**-k for k in range(res.steps_used)]
            quotients = [(eval_phi(h1, t + s * direction) - w) / s for s in ladder]
            expected = extrapolate_limit(ladder, quotients)
            assert np.array_equal(res.eta, expected.value)
            assert res.convergence_increments == expected.increments

    # Ratchet: the BoundaryPoints one derivative-ladders body builds at T (eta_numeric, a
    # homogeneity check per scale and a second ladder), pinned exactly.  A change that
    # builds fewer lowers the pin; none raises it.
    BOUNDARY_POINTS = 1

    def test_ladder_body_builds_one_boundary_point(self, h1, rng, monkeypatch):
        from ncjulia import domain

        built, original = [], domain.BoundaryPoint
        monkeypatch.setattr(domain, "BoundaryPoint", lambda *a: built.append(a) or original(*a))
        t, w = identity_pair(2), np.eye(2)
        direction = random_admissible_direction(rng, 2)
        res = eta_numeric(h1, t, w, direction)
        for s in (0.3, 0.5, 1.0):
            homogeneity_check(h1, t, w, res, s)
        eta_numeric(h1, t, w, direction, first_step=1e-2 / 3.0)
        assert len(built) == self.BOUNDARY_POINTS


class TestAdmissibleLadder:
    FIELDS = ("delta", "delta_norm", "u", "phi")

    def ladder(self, h, t, direction, first_step, steps):
        """The ladder, checked against its step list and against evaluate at each point."""
        path = _admissible_ladder(h, t, direction, first_step, steps)
        t0 = path.points.steps[0]
        assert path.points.steps == [s for s in (t0 * 2.0**-k for k in range(steps)) if s >= STEP_FLOOR]
        assert path.points.dropped == 0 and path.points.kind == "ray"
        assert path.points.direction is direction
        ev = path.evaluation
        assert {len(getattr(ev, name)) for name in self.FIELDS} == {len(path.points.steps)}
        for k, s in enumerate(path.points.steps):
            one = evaluate(h, t + s * direction)
            for name in self.FIELDS:
                assert np.array_equal(getattr(ev, name)[k], getattr(one, name)), name
        return path

    def test_ladder_is_the_ray_sequence(self, h1, rng):
        path = self.ladder(h1, identity_pair(2), random_admissible_direction(rng, 2), 1e-2, 10)
        assert path.points.steps[0] == 1e-2 and len(path.points.steps) == 10
        # steps below the floor are cut: 1e-7, 5e-8, 2.5e-8 and 1.25e-8 remain
        path = self.ladder(h1, scalars(1.0, 1.0), scalars(-1.0, -1.0), 1e-7, 10)
        assert len(path.points.steps) == 4

    def test_halving_ladder_warns_nothing(self, h1):
        t, direction = scalars(1.0, 1.0), scalars(-1.0, -1.0)
        # the first attempt drops points, which a plain sequence warns about
        with pytest.warns(GDeltaExitWarning):
            evaluate_sequence(h1, t, direction, 10, 40.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            path = self.ladder(h1, t, direction, 40.0, 10)
        assert caught == []
        assert path.points.steps[0] == 40.0 / 2**5 and len(path.points.steps) == 10

    def test_rejected_first_steps_solve_nothing(self, h1, monkeypatch):
        from ncjulia import boundary

        rows = []
        evaluate_stack = boundary.evaluate_stack

        def counted(h, stack):
            evaluation = evaluate_stack(h, stack)
            rows.append(len(evaluation.phi))
            return evaluation

        monkeypatch.setattr(boundary, "evaluate_stack", counted)
        eta_numeric(h1, scalars(1.0, 1.0), np.eye(1), scalars(-1.0, -1.0), first_step=40.0)
        # first steps 40 to 2.5 leave ladder points outside; only the admitted ladder is solved
        assert rows == [10]

    def test_huge_first_step_is_halved_into_the_domain(self, h1):
        direction = scalars(-1.0, -1.0)
        res = eta_numeric(h1, scalars(1.0, 1.0), np.eye(1), direction, first_step=1e30)
        # about 100 halvings bring the first step under 2, where the whole ladder is interior
        assert res.converged and 1.0 <= res.first_step < 2.0 and res.steps_used == 10
        assert operator_norm(res.eta - example_eta(direction)) <= 1e-13
        for first_step in (np.inf, np.nan):
            with pytest.raises(PreconditionError, match="first step must be finite"):
                eta_numeric(h1, scalars(1.0, 1.0), np.eye(1), direction, first_step=first_step)

    def test_bad_first_step_is_refused_before_t_is_evaluated(self, h1, monkeypatch):
        from ncjulia import derivative

        t, w, direction = scalars(1.0, 1.0), np.eye(1), scalars(-1.0, -1.0)
        # 2 STEP_FLOOR is the least first step: its ladder has two steps
        res = eta_numeric(h1, t, w, direction, first_step=2.0 * STEP_FLOOR)
        assert res.steps_used == 2 and res.first_step == 2.0 * STEP_FLOOR
        monkeypatch.setattr(derivative, "boundary_point", None)  # a call would raise TypeError
        for first_step in (0.0, -1e-2):
            with pytest.raises(PreconditionError, match="first step must be finite and > 0"):
                eta_numeric(h1, t, w, direction, first_step=first_step)
        for first_step in (1e-300, np.nextafter(2.0 * STEP_FLOOR, 0.0)):
            with pytest.raises(PreconditionError, match="must be at least 2e-08, two ladder steps"):
                eta_numeric(h1, t, w, direction, first_step=first_step)

    def test_huge_step_count_stops_at_the_floor(self, h1):
        start = time.perf_counter()
        res = eta_numeric(h1, scalars(1.0, 1.0), np.eye(1), scalars(-1.0, -1.0), steps=10**8)
        assert time.perf_counter() - start < 5.0
        # 1e-2 * 2^-k stays at or above the floor for k <= 19
        assert res.steps_used == 20 and res.partial and res.converged

    def test_no_admissible_first_step(self, h1):
        t = scalars(1.0, 1.0)
        # every point of an outward ray lies outside; a first step near the floor leaves one step
        for direction, first_step in ((scalars(1.0, 1.0), 1e-2), (scalars(-1.0, -1.0), 1.5e-8)):
            with pytest.raises(PreconditionError, match="no admissible first step"):
                _admissible_ladder(h1, t, direction, first_step, 10)


class TestHomogeneity:
    def test_s_equal_one_is_exact(self, h1, rng):
        t, w = identity_pair(2), np.eye(2)
        direction = random_admissible_direction(rng, 2)
        res = eta_numeric(h1, t, w, direction)
        assert homogeneity_check(h1, t, w, res, 1.0) <= 1e-12

    def test_diagonal_closed_form(self, h1):
        # eta(s (-1,-1)) = -s = s eta((-1,-1))
        t, w = scalars(1.0, 1.0), np.eye(1)
        res = eta_numeric(h1, t, w, scalars(-1.0, -1.0))
        assert homogeneity_check(h1, t, w, res, 0.5) <= 1e-8

    def test_random_direction(self, h1, rng):
        t, w = identity_pair(2), np.eye(2)
        direction = random_admissible_direction(rng, 2)
        res = eta_numeric(h1, t, w, direction)
        assert homogeneity_check(h1, t, w, res, 0.3) <= 1e-6

    def test_invalid_scale(self, h1):
        t, w = scalars(1.0, 1.0), np.eye(1)
        res = eta_numeric(h1, t, w, scalars(-1.0, -1.0))
        with pytest.raises(PreconditionError):
            homogeneity_check(h1, t, w, res, 1.5)


class TestScalarAngularDerivative:
    def test_diagonal_ray(self, h1):
        # f(t) = phi((1-t) I) e1 . e1 = 1 - t
        value = scalar_angular_derivative(h1, scalars(1.0, 1.0), scalars(-1.0, -1.0))
        assert value == pytest.approx(-1.0, abs=1e-8)

    def test_trivial_disk(self, disk):
        value = scalar_angular_derivative(disk, scalars(1.0), scalars(-1.0))
        assert value == pytest.approx(-1.0, abs=1e-8)

    def test_consistent_with_eta(self, h1, rng):
        # <eta(K) v, W v> equals the scalar slice derivative
        n = 2
        t, w = identity_pair(n), np.eye(n)
        direction = random_admissible_direction(rng, n)
        # make the direction transverse: keep only the self-adjoint part
        comps = tuple(-(c @ c.conj().T) - 0.1 * np.eye(n) for c in direction.components)
        k = MatrixTuple(tuple(c / max(1.0, np.linalg.norm(c, 2)) for c in comps))
        res = eta_numeric(h1, t, w, k)
        v = np.zeros(n, dtype=complex)
        v[0] = 1.0
        expected = complex((w @ v).conj() @ (res.eta @ v))
        value = scalar_angular_derivative(h1, t, k, w=w)
        assert value == pytest.approx(expected, abs=1e-6)

    def test_default_w_matches_extract_w(self, h1, rng):
        n = 2
        t = identity_pair(n)
        comps = tuple(
            -(c @ c.conj().T) - 0.1 * np.eye(n)
            for c in random_admissible_direction(rng, n).components
        )
        k = MatrixTuple(tuple(c / max(1.0, np.linalg.norm(c, 2)) for c in comps))
        ladder = [1e-2 * 2.0**-j for j in range(12)]
        # every point of the default ladder is interior, so the first step is kept
        assert all(in_G_delta(h1.delta, t + s * k) for s in ladder)
        v = np.eye(n, dtype=complex)[0]
        wv = extract_W(evaluate_sequence(h1, t, k, 12, 1e-2)).W @ v
        quotients = [
            np.array((complex(wv.conj() @ (eval_phi(h1, t + s * k) @ v)) - 1.0) / s)
            for s in ladder
        ]
        expected = extrapolate_limit(ladder, quotients).value
        assert scalar_angular_derivative(h1, t, k) == complex(expected.reshape(()))

    def test_quotients_that_are_not_cauchy_are_refused(self):
        # phi = 1/2 on the disk (a colligation that is no isometry): with W = 1 the quotients
        # (1/2 - 1) / s double at each halving of s, so their increments are not Cauchy
        half = Realization(1, 1, [[0.5]], [[0.0]], [[0.0]], [[0.0]], isometry_tol=np.inf)
        h = NcFunctionHandle(half, polydisk_delta(1))
        with pytest.raises(ConvergenceError, match="difference quotients are not Cauchy"):
            scalar_angular_derivative(h, scalars(1.0), scalars(-1.0), w=np.eye(1))

    def test_w_of_another_size_rejected(self, h1):
        t = identity_pair(2)
        with pytest.raises(DimensionError, match=r"W has shape \(3, 3\), expected \(2, 2\)"):
            scalar_angular_derivative(h1, t, -1.0 * t, w=np.eye(3))

    def test_v_of_another_length_or_zero_rejected(self, h1):
        t = identity_pair(2)
        with pytest.raises(DimensionError, match="v has length 3, expected 2"):
            scalar_angular_derivative(h1, t, -1.0 * t, v=np.ones(3))
        with pytest.raises(PreconditionError, match="non-zero vector"):
            scalar_angular_derivative(h1, t, -1.0 * t, v=np.zeros(2))

    def test_t_off_the_boundary_rejected(self, h1):
        with pytest.raises(PreconditionError, match=r"T is interior \(\|\|delta\(T\)\|\| = 0.5\)"):
            scalar_angular_derivative(h1, scalars(0.5, 0.5), scalars(-0.5, -0.5))
        with pytest.raises(PreconditionError, match="T is outside the closed domain"):
            scalar_angular_derivative(h1, scalars(1.5, 0.5), scalars(-0.5, -0.5))

    def test_non_transverse_rejected(self, h1):
        with pytest.raises(PreconditionError, match="transverse"):
            scalar_angular_derivative(h1, scalars(1.0, 1.0), scalars(1j, -1.0))
