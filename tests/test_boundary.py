import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncjulia import (
    DimensionError,
    Evaluation,
    MatrixTuple,
    NcFunctionHandle,
    PreconditionError,
    Realization,
    analyze_bpoint,
    boundary_identity_residual,
    boundary_model,
    boundary_point,
    cartan_delta,
    estimate_alpha,
    eval_u,
    evaluate,
    evaluate_sequence,
    evaluate_stack,
    example_phi_closed,
    extract_W,
    gaussian_drafts,
    get_fixture,
    haar_unitary,
    is_bpoint_range_test,
    julia_inequality_check,
    julia_quotient,
    julia_sweep,
    operator_norm,
    polydisk_delta,
    random_interior_point,
    random_realization,
    scale_into_domain,
    tfae_report,
)
from ncjulia.domain import SEQUENCE_FIRST_STEP

from ncjulia.boundary import JuliaSweep
from ncjulia.realization import model_operators, solve_rows

from conftest import (
    looped_julia_sweep,
    random_unitary_tuple,
    sequential_interior_sample,
    solve_budget,
    solve_uT_three_svds,
    stack_points,
    witness_grid,
)


@pytest.fixture
def h1():
    return get_fixture("example-h1").handle


@pytest.fixture
def disk():
    return get_fixture("trivial-disk").handle


def scalars(*zs):
    return MatrixTuple.from_scalars(zs)


def inconsistent_handle():
    """Non-isometric colligation whose boundary system at T=1 is inconsistent.

    With A=0, B=0, C=1, D=1 on the disk, I - D delta(1) = 0 while C = 1, so
    the right-hand side is outside the range; u(r) = 1/(1-r) blows up and the
    quotient grows like 1/(1-r^2).
    """
    r = Realization(
        dim_E=1, J=1,
        A=np.array([[0.0]]), B=np.array([[0.0]]),
        C=np.array([[1.0]]), D=np.array([[1.0]]),
        isometry_tol=np.inf,
    )
    return NcFunctionHandle(realization=r, delta=polydisk_delta(1))


class TestEvaluateSequence:
    def test_each_evaluation_equals_evaluate_at_its_point(self, rng):
        from ncjulia import cartan_delta, ball_delta, haar_unitary

        def bits(z):
            return [c.view(np.uint64) for c in z.components]

        # n = None: a unitary pair with signed zeros, whose points must carry the sign bits too
        signed = MatrixTuple(
            (np.array([[1.0, -0.0], [0.0, -1.0]]), np.array([[-0.0, 1j], [1j, 0.0]]))
        )
        deltas = (polydisk_delta(2), ball_delta(2), cartan_delta(2))
        inputs = [(delta, n) for delta in deltas for n in (1, 2, 3)]
        kept = 0
        for delta, n in inputs + [(polydisk_delta(2), None)]:
            handle = NcFunctionHandle(realization=random_realization(2, 2, seed=31), delta=delta)
            if n is None:
                t = signed
            elif delta.d == 3:  # cartan: Delta(T) = [[cV, isV], [isV, cV]]
                v = haar_unitary(n, rng)
                t = MatrixTuple((np.cos(0.4) * v, 1j * np.sin(0.4) * v, np.cos(0.4) * v))
            elif len(delta.entries[0]) == 1:  # ball: a column isometry
                u = haar_unitary(2 * n, rng)
                t = MatrixTuple((u[:n, :n], u[n:, :n]))
            else:  # polydisk: a Haar-unitary pair
                t = random_unitary_tuple(rng, 2, n)
            for direction in (None, -1.0 * t):
                path = evaluate_sequence(handle, t, direction, 12, SEQUENCE_FIRST_STEP)
                steps = [SEQUENCE_FIRST_STEP * 2.0 ** (-k) for k in range(12)]
                assert path.points.dropped == 0 and path.points.steps == steps
                assert len(path.evaluation.phi) == len(steps)
                for k, s in enumerate(steps):
                    x, ev = path.points.stack.point(k), path.evaluation.row(k)
                    # each point is the tuple arithmetic of its step, bit for bit
                    z = (1.0 - s) * t if direction is None else t + s * direction
                    assert all(map(np.array_equal, bits(x), bits(z)))
                    one = evaluate(handle, x)
                    for name in ("delta", "u", "phi"):
                        assert np.array_equal(getattr(ev, name), getattr(one, name)), name
                    assert ev.delta_norm == one.delta_norm
                    kept += 1
        assert kept == 240

    def test_generate_sequence_builds_no_tuple(self, h1, monkeypatch):
        from ncjulia import generate_sequence

        t, direction = scalars(1.0, 1.0), scalars(-1.0, -1.0)
        built = []
        post_init = MatrixTuple.__post_init__
        monkeypatch.setattr(
            MatrixTuple, "__post_init__", lambda self: built.append(self) or post_init(self)
        )
        for ray in (None, direction):
            pts = generate_sequence(h1.delta, t, ray, 12, SEQUENCE_FIRST_STEP)
            assert len(pts.steps) == 12 and built == []
        # a point is built only where it is read
        assert len(stack_points(pts.stack)) == 12 and len(built) == 12


    def test_sequence_diagnostics_build_no_tuple_or_point_evaluation(self, h1, monkeypatch):
        from ncjulia import eta_numeric

        t, direction = scalars(1.0, 1.0), scalars(-1.0, -1.0)
        bp = boundary_point(h1.delta, t)
        # "Evaluation": one-point evaluations, those without a row axis
        built = {"MatrixTuple": 0, "Evaluation": 0}
        post_init, init = MatrixTuple.__post_init__, Evaluation.__init__

        def counted_post_init(self):
            built["MatrixTuple"] += 1
            post_init(self)

        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built["Evaluation"] += self.phi.ndim == 2

        monkeypatch.setattr(MatrixTuple, "__post_init__", counted_post_init)
        monkeypatch.setattr(Evaluation, "__init__", counted_init)
        for ray in (None, direction):
            path = evaluate_sequence(h1, t, ray, 12, SEQUENCE_FIRST_STEP)
            estimate_alpha(path), extract_W(path), tfae_report(path, bp)
        res = eta_numeric(h1, t, np.eye(1), direction)
        assert res.steps_used == 10 and built == {"MatrixTuple": 0, "Evaluation": 0}
        # a row of the stack, or a point of it, is built where it is read
        path.evaluation.row(3)
        assert built == {"MatrixTuple": 0, "Evaluation": 1}
        path.points.stack.point(3)
        assert built == {"MatrixTuple": 1, "Evaluation": 1}


class TestJuliaQuotient:
    def test_diagonal_is_one(self, h1):
        for r in (0.3, 0.6, 0.9):
            q = julia_quotient(evaluate(h1, scalars(r, r)))
            assert q.value == pytest.approx(1.0, abs=1e-12)

    def test_origin_is_one(self, h1):
        q = julia_quotient(evaluate(h1, scalars(0.0, 0.0)))
        assert q.value == pytest.approx(1.0)
        assert q.numerator == pytest.approx(1.0)
        assert q.denominator == pytest.approx(1.0)

    def test_derived_value(self, h1):
        # phi = 5/12: (1 - 25/144) / (1 - 1/4) = (119/144)/(3/4) = 119/108
        q = julia_quotient(evaluate(h1, scalars(0.5, 0.3)))
        assert q.value == pytest.approx(119.0 / 108.0, abs=1e-12)

    def test_boundary_rejected(self, h1):
        with pytest.raises(PreconditionError):
            julia_quotient(evaluate(h1, scalars(1.0, 0.0)))

    def test_norms_square_as_products_at_a_point_and_a_stack(self):
        # norms whose Python power v**2 (libm pow) rounds otherwise than v * v: a stack and
        # each of its rows take 1 - v * v, bit for bit
        draws = np.random.default_rng(0).random(20000).tolist()
        norms = [v for v in draws if v**2 != v * v]
        assert norms
        k = len(norms)
        zero = np.zeros((k, 1, 1), dtype=np.complex128)
        stack = Evaluation(zero, np.array(norms), zero, zero)
        want = [1.0 - v * v for v in norms]
        assert julia_quotient(stack).denominator.tolist() == want
        assert [julia_quotient(stack.row(i)).denominator for i in range(k)] == want


class TestEstimateAlpha:
    def test_example_radial(self, h1):
        for n in (1, 2, 3):
            t = MatrixTuple((np.eye(n),) * 2)
            est = estimate_alpha(evaluate_sequence(h1, t, None, 10, SEQUENCE_FIRST_STEP))
            assert est.alpha == pytest.approx(1.0, abs=1e-8)
            assert est.converged and est.is_liminf and not est.diverging

    def test_trivial_disk(self, disk):
        est = estimate_alpha(evaluate_sequence(disk, scalars(1.0), None, 10, SEQUENCE_FIRST_STEP))
        assert est.alpha == pytest.approx(1.0, abs=1e-10)

    def test_growth_detected(self):
        h = inconsistent_handle()
        est = estimate_alpha(evaluate_sequence(h, scalars(1.0), None, 10, SEQUENCE_FIRST_STEP))
        assert est.diverging and not est.converged
        assert est.alpha == float("inf")
        # cross-check: the range test agrees that T=1 is not a B-point
        verdict = is_bpoint_range_test(h, boundary_point(h.delta, scalars(1.0)))
        assert not verdict.is_bpoint
        assert verdict.model.range_residual == pytest.approx(1.0)

    def test_ray_estimate_not_labeled_liminf(self, h1):
        t = scalars(1.0, 1.0)
        est = estimate_alpha(evaluate_sequence(h1, t, -1.0 * t, 10, SEQUENCE_FIRST_STEP))
        assert est.alpha == pytest.approx(1.0, abs=1e-8)
        assert not est.is_liminf


class TestExtractW:
    def test_example_scalar(self, h1):
        res = extract_W(evaluate_sequence(h1, scalars(1.0, 1.0), None, 12, SEQUENCE_FIRST_STEP))
        assert res.W[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert res.unitary_distance <= 1e-6

    def test_example_matrix_level(self, h1):
        t = MatrixTuple((np.eye(2),) * 2)
        res = extract_W(evaluate_sequence(h1, t, None, 12, SEQUENCE_FIRST_STEP))
        np.testing.assert_allclose(res.W, np.eye(2), atol=1e-8)

    def test_trivial_disk(self, disk):
        res = extract_W(evaluate_sequence(disk, scalars(1.0), None, 12, SEQUENCE_FIRST_STEP))
        assert res.W[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_uniqueness_across_transverse_rays(self, rng):
        # two different transverse directions produce the same boundary value
        delta = polydisk_delta(2)
        r = random_realization(2, 2, seed=77)
        handle = NcFunctionHandle(realization=r, delta=delta)
        t = random_unitary_tuple(rng, 2, 2)
        k1 = -1.0 * t
        weights = []
        for u in t.components:
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            p = 0.6 * np.eye(2) + 0.4 * (g @ g.conj().T) / max(1.0, np.linalg.norm(g @ g.conj().T, 2))
            weights.append(-u @ p / np.linalg.norm(p, 2))
        k2 = MatrixTuple(tuple(weights))
        w1, w2 = (
            extract_W(evaluate_sequence(handle, t, k, 18, 0.05)).W
            for k in (k1, k2)
        )
        assert operator_norm(w1 - w2) <= 1e-6


class TestSolveUT:
    def test_example_values(self, h1):
        model = boundary_model(h1, boundary_point(h1.delta, scalars(1.0, 1.0)))
        np.testing.assert_allclose(
            model.u_T, np.array([[1.0], [1.0]]) / np.sqrt(2.0), atol=1e-12
        )
        norm = operator_norm(model.u_T)
        assert model.alpha_model == norm * norm
        assert model.alpha_model == pytest.approx(1.0, abs=1e-12)
        assert model.range_residual <= 1e-12
        assert model.kernel_orthogonality <= 1e-12
        assert model.kernel_defect <= 1e-10

    def test_invertible_resolvent_residual_zero(self, h1):
        # det [I - D delta(1, -1)] = 1, the system is regular
        model = boundary_model(h1, boundary_point(h1.delta, scalars(1.0, -1.0)))
        assert model.range_residual <= 1e-12
        assert model.kernel_orthogonality == 0.0

    def test_perturbed_colligation_kernel_defect(self):
        # with D = [[1, 1], [0, 0]] at T = (1, 1): I - D delta(T) = [[0, -1], [0, 1]]
        # has kernel span{e1} but cokernel span{(1, 1)}, a visible mismatch
        r = Realization(
            dim_E=1, J=2,
            A=np.array([[0.0]]), B=np.array([[0.0, 0.0]]),
            C=np.array([[1.0], [0.0]]),
            D=np.array([[1.0, 1.0], [0.0, 0.0]]),
            isometry_tol=np.inf,
        )
        h = NcFunctionHandle(realization=r, delta=polydisk_delta(2))
        model = boundary_model(h, boundary_point(h.delta, scalars(1.0, 1.0)))
        assert model.kernel_defect > 0.5

    def test_requires_distinguished_boundary(self, h1):
        with pytest.raises(PreconditionError):
            boundary_model(h1, boundary_point(h1.delta, scalars(1.0, 0.5)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_regular_model_reads_w_from_u_t(self, h1, n):
        # R0 is invertible at Haar T: W = A + (B kron I)(I kron Delta(T)) u_T is f(T)
        rng = np.random.default_rng(7)
        for _ in range(5):
            t = random_unitary_tuple(rng, 2, n)
            model = boundary_model(h1, boundary_point(h1.delta, t))
            assert model.regular
            assert operator_norm(model.W - example_phi_closed(t)) <= 1e-13
            assert model.W is model.W  # computed once

    def test_singular_model_has_no_w(self, h1):
        # at (I, I) R0 has a kernel of dimension n: W is not read from u_T there
        model = boundary_model(h1, boundary_point(h1.delta, scalars(1.0, 1.0)))
        assert not model.regular
        with pytest.raises(PreconditionError, match="singular at T"):
            model.W

    def test_one_full_svd_for_kernel_and_cokernel(self, h1, rng, monkeypatch):
        # one full SVD of R0 = I - (D kron I)(I kron Delta(T)) gives the solution and both
        # kernels: nothing else factors R0, or its conjugate (which numpy's pinv factors)
        bp = boundary_point(h1.delta, random_unitary_tuple(rng, 2, 2))
        system = model_operators(h1.realization, bp.delta, 2)[0]
        factored, original = [], np.linalg.svd

        def counting_svd(a, *args, **kwargs):
            a = np.asarray(a)
            if any(np.array_equal(a, m) for m in (system, system.conj())):
                factored.append((a.shape, args, kwargs))
            return original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        monkeypatch.setitem(np.linalg.pinv.__wrapped__.__globals__, "svd", counting_svd)
        boundary_model(h1, bp)
        assert factored == [((4, 4), (), {})]

    @staticmethod
    def oracle_cases():
        """(handle, T) on distinguished boundaries; the last two systems are zero or nearly."""
        rng = np.random.default_rng(2411)
        h1 = get_fixture("example-h1").handle
        yield h1, scalars(1.0, 1.0)
        for n in (1, 2, 3, 4):
            yield h1, random_unitary_tuple(rng, 2, n)
        for k in range(4):
            n = 1 + k % 2
            handle = NcFunctionHandle(random_realization(2, 2, seed=50 + k), polydisk_delta(2))
            yield handle, random_unitary_tuple(rng, 2, n)
            c, s, v = np.cos(0.3 + k / 4), np.sin(0.3 + k / 4), haar_unitary(n, rng)
            handle = NcFunctionHandle(random_realization(2, 2, seed=60 + k), cartan_delta(2))
            yield handle, MatrixTuple((c * v, 1j * s * v, c * v))
        # R0 = 1 - D z is about 1e-14 in modulus, below PINV_RTOL, then exactly zero
        z = np.exp(0.7j)
        for c, d, t in ((-1.0 + 0.5j, (1.0 - 1e-14) / z, z), (0.0, 1.0, 1.0)):
            r = Realization(
                dim_E=1, J=1, A=np.zeros((1, 1)), B=np.zeros((1, 1)), C=np.full((1, 1), c),
                D=np.full((1, 1), d), isometry_tol=np.inf,
            )
            yield NcFunctionHandle(r, polydisk_delta(1)), scalars(t)

    def test_one_svd_equals_the_three_svd_solve_bit_for_bit(self):
        def bits(a):
            a = np.asarray(a)
            return a.shape, a.dtype, a.tobytes()

        for handle, t in self.oracle_cases():
            bp = boundary_point(handle.delta, t)
            assert bp.distinguished
            model = boundary_model(handle, bp)
            assert model.h is handle and model.point is bp
            got = (model.u_T, model.range_residual, model.kernel_orthogonality, model.kernel_defect)
            assert [bits(v) for v in got] == [bits(v) for v in solve_uT_three_svds(handle, bp)]
            assert type(model.range_residual) is float
        # the last system is zero: every vector lies in its kernel and u_T is 0
        assert not model.u_T.any() and model.kernel_defect == 0.0


class TestRangeTest:
    def test_example_diagonal_point(self, h1):
        verdict = is_bpoint_range_test(h1, boundary_point(h1.delta, scalars(1.0, 1.0)))
        assert verdict.is_bpoint and not verdict.conditional
        assert verdict.inward_witness.found

    def test_example_mixed_point(self, h1):
        assert is_bpoint_range_test(h1, boundary_point(h1.delta, scalars(1.0, -1.0))).is_bpoint

    def test_consistency_with_bounded_quotients(self, h1):
        # positive range test implies bounded quotients along a transverse ray
        t = scalars(1.0, -1.0)
        assert is_bpoint_range_test(h1, boundary_point(h1.delta, t)).is_bpoint
        est = estimate_alpha(evaluate_sequence(h1, t, -1.0 * t, 12, SEQUENCE_FIRST_STEP))
        assert est.converged and not est.diverging
        assert np.isfinite(est.alpha)


class TestJuliaInequality:
    def test_derived_values(self, h1):
        # lhs = (7/12)^2 / (119/144) = 49/119, rhs = 0.49 / 0.75
        bp = boundary_point(h1.delta, scalars(1.0, 1.0))
        check = julia_inequality_check(evaluate(h1, scalars(0.5, 0.3)), bp, np.eye(1), 1.0)
        assert check.lhs == pytest.approx(49.0 / 119.0, abs=1e-12)
        assert check.rhs == pytest.approx(0.49 / 0.75, abs=1e-12)
        assert check.holds and not check.skipped

    def test_equality_on_diagonal(self, h1):
        bp = boundary_point(h1.delta, scalars(1.0, 1.0))
        for r in (0.2, 0.5, 0.8):
            check = julia_inequality_check(evaluate(h1, scalars(r, r)), bp, np.eye(1), 1.0)
            assert check.lhs == pytest.approx(check.rhs, abs=1e-12)
            assert check.holds

    def test_point_size_mismatch(self, h1):
        z = MatrixTuple((0.5 * np.eye(2),) * 2)
        bp = boundary_point(h1.delta, scalars(1.0, 1.0))
        with pytest.raises(DimensionError, match="same matrix size"):
            julia_inequality_check(evaluate(h1, z), bp, np.eye(1), 1.0)
        with pytest.raises(DimensionError, match="same matrix size"):
            boundary_identity_residual(boundary_model(h1, bp), np.eye(1), evaluate(h1, z))
        path = evaluate_sequence(h1, MatrixTuple((np.eye(2),) * 2), None, 6, SEQUENCE_FIRST_STEP)
        with pytest.raises(DimensionError, match="same matrix size"):
            tfae_report(path, bp)

    def test_stacked_evaluation_is_refused(self, h1):
        # one point's evaluation is checked; the sweep checks a stack row by row
        t = scalars(1.0, 1.0)
        path = evaluate_sequence(h1, t, None, 6, SEQUENCE_FIRST_STEP)
        bp = boundary_point(h1.delta, t)
        with pytest.raises(DimensionError, match="at one point, not at a stack"):
            julia_inequality_check(path.evaluation, bp, np.eye(1), 1.0)
        row = julia_inequality_check(path.evaluation.row(2), bp, np.eye(1), 1.0)
        z = path.points.stack.point(2)
        assert row == julia_inequality_check(evaluate(h1, z), bp, np.eye(1), 1.0)

    def test_w_and_u_t_of_another_shape_rejected(self, h1):
        bp = boundary_point(h1.delta, scalars(1.0, 1.0))
        ev, model = evaluate(h1, scalars(0.5, 0.3)), boundary_model(h1, bp)
        with pytest.raises(DimensionError, match=r"W has shape \(2, 2\), expected \(1, 1\)"):
            julia_inequality_check(ev, bp, np.eye(2), 1.0)
        with pytest.raises(DimensionError, match=r"W has shape \(2, 2\), expected \(1, 1\)"):
            boundary_identity_residual(model, np.eye(2), ev)

    def test_sweep_refuses_w_and_u_t_of_another_shape_before_drawing(self, h1, monkeypatch):
        from ncjulia import boundary

        bp = boundary_point(h1.delta, scalars(1.0, 1.0))
        solved = []
        monkeypatch.setattr(boundary, "evaluate_stack", lambda *a: solved.append(a))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for count in (0, 30):
            with pytest.raises(DimensionError, match=r"W has shape \(2, 2\), expected \(1, 1\)"):
                julia_sweep(h1, rng, count, bp, np.eye(2), 1.0, boundary_model(h1, bp))
        # no standard_normal call moved the generator, and no block was solved
        assert rng.bit_generator.state == state and solved == []

    def test_sweep_refuses_the_model_of_another_point_before_drawing(self, h1, monkeypatch):
        from ncjulia import boundary

        # the model at T = (1, -1), or of an equal handle that is another object, is not the
        # model at T = (1, 1): its identity residuals would check the wrong identity
        bp = boundary_point(h1.delta, scalars(1.0, 1.0))
        other = boundary_point(h1.delta, scalars(1.0, -1.0))
        twin = NcFunctionHandle(h1.realization, h1.delta)
        solved = []
        monkeypatch.setattr(boundary, "evaluate_stack", lambda *a: solved.append(a))
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for model in (boundary_model(h1, other), boundary_model(twin, bp)):
            for count in (0, 50):
                with pytest.raises(PreconditionError, match="boundary model is not the one"):
                    julia_sweep(h1, rng, count, bp, np.eye(1), 1.0, model)
        assert rng.bit_generator.state == state and solved == []

    def test_non_finite_alpha_refused_before_drawing(self, h1):
        # a NaN alpha would count every sample as a violation and +inf would pass every one
        bp = boundary_point(h1.delta, scalars(1.0, 1.0))
        ev, rng = evaluate(h1, scalars(0.5, 0.3)), np.random.default_rng(0)
        state = rng.bit_generator.state
        for alpha in (np.nan, np.inf, -np.inf):
            with pytest.raises(PreconditionError, match="alpha must be finite, got"):
                julia_inequality_check(ev, bp, np.eye(1), alpha)
            with pytest.raises(PreconditionError, match="alpha must be finite, got"):
                julia_sweep(h1, rng, 10, bp, np.eye(1), alpha, boundary_model(h1, bp))
        assert rng.bit_generator.state == state
        # an estimate below 0 is no refusal: it shows up as violations
        sweep = julia_sweep(h1, rng, 10, bp, np.eye(1), -1.0)
        assert sweep.violations == sweep.checked == 10

    def test_sweep_no_violations(self, h1, rng):
        t = MatrixTuple((np.eye(2),) * 2)
        w = np.eye(2)
        for _ in range(200):
            z = random_interior_point(h1.delta, 2, rng)
            check = julia_inequality_check(evaluate(h1, z), boundary_point(h1.delta, t), w, 1.0)
            assert check.skipped or check.holds

    def test_random_realizations_with_estimated_data(self, rng):
        # end-to-end: random colligation, range-test B-point, alpha and W
        # extracted numerically, inequality swept over random interior points
        delta = polydisk_delta(2)
        for k in range(3):
            handle = NcFunctionHandle(
                realization=random_realization(1 + k % 2, 2, seed=1200 + k), delta=delta
            )
            t = random_unitary_tuple(rng, 2, int(rng.integers(1, 3)))
            assert is_bpoint_range_test(handle, boundary_point(handle.delta, t)).is_bpoint
            est = estimate_alpha(evaluate_sequence(handle, t, None, 20, SEQUENCE_FIRST_STEP))
            assert est.converged
            w = extract_W(evaluate_sequence(handle, t, None, 20, SEQUENCE_FIRST_STEP)).W
            for _ in range(30):
                z = random_interior_point(delta, t.n, rng)
                check = julia_inequality_check(
                    evaluate(handle, z), boundary_point(handle.delta, t), w, est.alpha
                )
                assert check.skipped or check.holds

    @pytest.mark.parametrize("source, n", [
        ("example-h1", 1), ("example-h1", 2), ("example-h1", 4), ("cartan:2", 2), ("ball:2", 2),
    ])
    def test_stacked_sweep_equals_looped_checks(self, source, n, monkeypatch):
        from ncjulia import domain, get_delta, haar_unitary

        rng = np.random.default_rng(30 + n)
        if source == "example-h1":
            handle, t = get_fixture(source).handle, random_unitary_tuple(rng, 2, n)
        else:
            delta = get_delta(source)
            handle = NcFunctionHandle(realization=random_realization(2, delta.J, 31), delta=delta)
        if source == "cartan:2":  # Delta(T) = [[cV, isV], [isV, cV]] is unitary
            v, c, s = haar_unitary(n, rng), np.cos(0.7), np.sin(0.7)
            t = MatrixTuple((c * v, 1j * s * v, c * v))
        elif source == "ball:2":  # a column isometry (V1; V2): Delta(T) is padded to 2n x 2n
            v = haar_unitary(2 * n, rng)
            t = MatrixTuple((v[:n, :n], v[n:, :n]))
        bp = boundary_point(handle.delta, t)
        path = evaluate_sequence(handle, t, None, 12, SEQUENCE_FIRST_STEP)
        if source == "ball:2":  # phi has no unitary limit at this non-B-point: any unitary W
            w, alpha = haar_unitary(n, rng), 1.0
        else:
            w, alpha = extract_W(path).W, estimate_alpha(path).alpha
        model = boundary_model(handle, bp)
        # blocks of 7 samples, so that the 30 samples span five blocks
        monkeypatch.setattr(domain, "BLOCK_BYTES", solve_budget(handle, n, 7))
        assert solve_rows(handle.delta, handle.realization.dim_E, n) == 7
        sweep = julia_sweep(handle, np.random.default_rng(3), 30, bp, w, alpha, model)
        # the oracle: evaluate and the per-point checks at sequentially drawn points
        expected = looped_julia_sweep(handle, np.random.default_rng(3), 30, bp, w, alpha, model)
        assert sweep == expected and sweep.checked + sweep.skipped == 30
        assert sweep.identity_max is not None

    def test_sweep_builds_no_tuple(self, h1, monkeypatch):
        from ncjulia import domain

        t = scalars(1.0, 1.0)
        bp = boundary_point(h1.delta, t)
        model = boundary_model(h1, bp)
        built = []
        post_init = MatrixTuple.__post_init__
        monkeypatch.setattr(
            MatrixTuple, "__post_init__", lambda self: built.append(self) or post_init(self)
        )
        monkeypatch.setattr(domain, "BLOCK_BYTES", solve_budget(h1, 1, 7))  # blocks of 7 at n = 1
        sweep = julia_sweep(h1, np.random.default_rng(5), 30, bp, np.eye(1), 1.0, model)
        # each row of each block is checked, with the boundary identity too, from its arrays
        assert sweep.checked + sweep.skipped == 30 and sweep.identity_max is not None
        assert built == []

    def test_sweep_checks_the_identity_once_per_block(self, h1, monkeypatch):
        from ncjulia import boundary, domain

        def recorded(name):
            calls, original = [], getattr(boundary, name)
            monkeypatch.setattr(boundary, name, lambda *a: calls.append(a) or original(*a))
            return calls

        identity = recorded("boundary_identity_residual")
        checks = recorded("julia_inequality_check")
        analyze_bpoint(h1, scalars(1.0, 1.0), julia_samples=50, seed=1)
        assert (len(identity), len(checks)) == (1, 50)
        identity.clear()
        # blocks of 3 at n = 1: one identity call each
        monkeypatch.setattr(domain, "BLOCK_BYTES", solve_budget(h1, 1, 3))
        analyze_bpoint(h1, scalars(1.0, 1.0), julia_samples=30, seed=1)
        assert [len(call[-1].phi) for call in identity] == [3] * 10

    def test_sweep_counts_violations(self, h1):
        # negative controls at the B-point (1, 1) of example-h1: the sweep that holds with
        # the report's alpha and W fails with alpha far too small, or with W rotated
        t = scalars(1.0, 1.0)
        rep = analyze_bpoint(h1, t, julia_samples=40, seed=2)
        w, alpha = rep.boundary_value.W, rep.alpha.alpha
        assert rep.is_bpoint and rep.julia.checked == 40 and rep.julia.violations == 0

        def sweep(w, alpha):
            return julia_sweep(h1, np.random.default_rng(2), 40, rep.point, w, alpha)

        assert sweep(w, alpha).violations == 0
        assert sweep(w, 1e-3 * alpha).violations == 40
        rotated = sweep(-w, alpha)
        assert 0 < rotated.violations < rotated.checked == 40

    def test_reports_equal_with_split_solves(self, h1, monkeypatch):
        from ncjulia import boundary, cli, domain, realization

        # solves of at most four rows: the 12-point path takes three, and the 27 sweep
        # samples are drawn and solved in seven blocks of 4, 4, 4, 4, 4, 4 and 3 rows
        solves, per_stack = [], []
        solution, evaluate_stack = realization._model_solution, boundary.evaluate_stack
        monkeypatch.setattr(
            realization, "_model_solution", lambda *a: solves.append(1) or solution(*a)
        )

        def counted(h, stack):
            before = len(solves)
            evaluation = evaluate_stack(h, stack)
            per_stack.append(len(solves) - before)
            return evaluation

        monkeypatch.setattr(boundary, "evaluate_stack", counted)
        for t in (scalars(1.0, 1.0), random_unitary_tuple(np.random.default_rng(7), 2, 2)):
            n, default = t.n, domain.BLOCK_BYTES
            reports = []
            for budget in (default, solve_budget(h1, n, 4)):
                per_stack.clear()
                monkeypatch.setattr(domain, "BLOCK_BYTES", budget)
                rep = analyze_bpoint(h1, t, julia_samples=27, seed=1)
                reports.append((cli.render_json(cli._jsonable_report(rep)), rep.julia))
            assert per_stack == [3] + [1] * 7
            assert reports[0][1].identity_max is not None  # the sweep checked u_T too
            assert reports[1] == reports[0]

    def test_sweep_memory_is_bounded_by_the_block_budget(self):
        import tracemalloc

        from ncjulia import domain

        # 400 samples of 64 x 64 model systems take 51 MiB held at once; drawn and
        # solved in blocks, the sweep stays within two budgets.  The u, phi and identity
        # intermediates of 2000 samples together pass two budgets: they are held for one
        # block at a time
        handle = NcFunctionHandle(random_realization(8, 2, 5), polydisk_delta(2))
        t = random_unitary_tuple(np.random.default_rng(0), 2, 4)
        bp = boundary_point(handle.delta, t)
        model = boundary_model(handle, bp)
        for count in (400, 2000):
            rng = np.random.default_rng(1)
            tracemalloc.start()
            try:
                sweep = julia_sweep(handle, rng, count, bp, np.eye(4), 1.0, model)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert sweep.checked + sweep.skipped == count
            assert peak <= 2 * domain.BLOCK_BYTES, (count, peak)

    def test_sweep_draws_and_scales_solve_sized_blocks(self, h1, monkeypatch):
        from ncjulia import boundary, domain

        class CountingGenerator:
            def __init__(self, seed):
                self.rng, self.calls = np.random.default_rng(seed), 0

            def standard_normal(self, *args):
                self.calls += 1
                return self.rng.standard_normal(*args)

        sizes, scale = [], boundary.scale_into_domain

        def recorded(delta, drafts, margin):
            sizes.append(drafts.shape[1])
            return scale(delta, drafts, margin)

        monkeypatch.setattr(boundary, "scale_into_domain", recorded)
        bp = boundary_point(h1.delta, random_unitary_tuple(np.random.default_rng(8), 2, 2))
        # one block at the default budget; then blocks of solve_rows rows, the last shorter
        for rows, count, blocks in ((None, 20, [20]), (7, 20, [7, 7, 6]), (4, 8, [4, 4]),
                                    (1, 3, [1, 1, 1])):
            if rows:
                monkeypatch.setattr(domain, "BLOCK_BYTES", solve_budget(h1, 2, rows))
                assert solve_rows(h1.delta, h1.realization.dim_E, 2) == rows
            sizes.clear()
            rng, at_once = CountingGenerator(5), np.random.default_rng(5)
            sweep = julia_sweep(h1, rng, count, bp, np.eye(2), 1.0)
            assert sizes == blocks and rng.calls == len(blocks)
            assert sweep.checked + sweep.skipped == count
            # the generator is where drawing all the drafts at once leaves it
            gaussian_drafts(h1.delta.d, 2, at_once, count)
            assert rng.rng.bit_generator.state == at_once.bit_generator.state

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(
        dim_e=st.integers(1, 2),
        n=st.integers(1, 3),
        count=st.integers(0, 24),
        seed=st.integers(0, 2**32 - 1),
        alpha=st.floats(0.05, 20.0),
    )
    def test_sweep_does_not_depend_on_the_block_budget(self, dim_e, n, count, seed, alpha):
        from ncjulia import domain

        # a random colligation on the bidisk and a unitary W; alpha varies, so that some
        # samples violate the inequality and others hold it
        rng = np.random.default_rng(seed)
        handle = NcFunctionHandle(random_realization(dim_e, 2, seed), polydisk_delta(2))
        bp = boundary_point(handle.delta, random_unitary_tuple(rng, 2, n))
        w, model = haar_unitary(n, rng), boundary_model(handle, bp)
        oracle = looped_julia_sweep(handle, np.random.default_rng(seed), count, bp, w, alpha, model)
        sweeps = []
        for rows in (None, 1, 3, 7):  # the default budget: every count is one block
            with pytest.MonkeyPatch.context() as patch:
                if rows:
                    patch.setattr(domain, "BLOCK_BYTES", solve_budget(handle, n, rows))
                sample_rng = np.random.default_rng(seed)
                sweeps.append(julia_sweep(handle, sample_rng, count, bp, w, alpha, model))
        assert sweeps == [oracle] * 4

    def test_sweep_with_every_row_skipped(self):
        # phi = e^{0.3i} is constant and unitary, so every sample's I - phi* phi is zero
        r = Realization(
            dim_E=1, J=2, A=np.full((1, 1), np.exp(0.3j)), B=np.zeros((1, 2)),
            C=np.zeros((2, 1)), D=np.eye(2),
        )
        handle = NcFunctionHandle(realization=r, delta=polydisk_delta(2))
        rep = analyze_bpoint(handle, scalars(np.exp(0.5j), 1.0), julia_samples=20, seed=1)
        assert rep.range_test.is_bpoint and rep.alpha.alpha == 0.0
        assert rep.julia == JuliaSweep(skipped=20)


class TestBoundaryIdentity:
    def test_derived_point(self, h1):
        bp = boundary_point(h1.delta, scalars(1.0, 1.0))
        z = evaluate(h1, scalars(0.5, 0.3))
        res = boundary_identity_residual(boundary_model(h1, bp), np.eye(1), z)
        assert res <= 1e-10

    def test_origin_identity(self, h1):
        # at Z = 0 the identity says 1 - W* A = u_T* u(0)
        t = scalars(1.0, 1.0)
        bp = boundary_point(h1.delta, t)
        model = boundary_model(h1, bp)
        u0 = eval_u(h1, scalars(0.0, 0.0))
        lhs = 1.0 - np.conj(1.0) * h1.realization.A[0, 0]
        rhs = (model.u_T.conj().T @ u0)[0, 0]
        assert lhs == pytest.approx(rhs, abs=1e-12)
        origin = evaluate(h1, scalars(0.0, 0.0))
        assert boundary_identity_residual(model, np.eye(1), origin) <= 1e-12

    def test_random_sweep(self, h1, rng):
        bp = boundary_point(h1.delta, scalars(1.0, 1.0))
        model = boundary_model(h1, bp)
        worst = 0.0
        for _ in range(100):
            z = random_interior_point(h1.delta, 1, rng)
            ev = evaluate(h1, z)
            worst = max(worst, boundary_identity_residual(model, np.eye(1), ev))
        assert worst <= 1e-8

    def test_stacked_residuals_equal_the_row_residuals(self, h1):
        bp = boundary_point(h1.delta, MatrixTuple((np.eye(2),) * 2))
        model = boundary_model(h1, bp)
        drafts = gaussian_drafts(2, 2, np.random.default_rng(4), 5)
        ev = evaluate_stack(h1, scale_into_domain(h1.delta, drafts, 0.05))
        residuals = boundary_identity_residual(model, np.eye(2), ev)
        rows = [boundary_identity_residual(model, np.eye(2), ev.row(k)) for k in range(5)]
        assert residuals.shape == (5,) and np.array_equal(residuals, rows)
        assert all(type(v) is float for v in rows) and max(rows) <= 1e-10


class TestTfae:
    def test_example_all_one(self, h1):
        t = scalars(1.0, 1.0)
        rep = tfae_report(
            evaluate_sequence(h1, t, None, 12, SEQUENCE_FIRST_STEP), boundary_point(h1.delta, t)
        )
        assert rep.sup_gram_quotient == pytest.approx(1.0, abs=1e-9)
        assert rep.sup_scalar_quotient == pytest.approx(1.0, abs=1e-9)
        assert rep.sup_model_norm_sq == pytest.approx(1.0, abs=1e-9)
        assert all(
            rep.comparability[k]
            for k in ("gram_le_scalar", "scalar_le_2c_gram", "gram_le_model", "model_le_scalar")
        )

    def test_comparability_on_random_realizations(self, rng):
        delta = polydisk_delta(2)
        for k in range(5):
            handle = NcFunctionHandle(
                realization=random_realization(1 + k % 2, 2, seed=500 + k), delta=delta
            )
            t = random_unitary_tuple(rng, 2, int(rng.integers(1, 3)))
            rep = tfae_report(
                evaluate_sequence(handle, t, None, 12, SEQUENCE_FIRST_STEP),
                boundary_point(handle.delta, t),
            )
            assert rep.comparability["gram_le_scalar"]
            assert rep.comparability["scalar_le_2c_gram"]
            assert rep.comparability["gram_le_model"]
            assert rep.comparability["model_le_scalar"]

    def test_tangential_sequence_rejected(self, h1, monkeypatch):
        from ncjulia import boundary

        # direction (i - eps) T enters the domain but with huge aperture
        t = scalars(1.0, 1.0)
        eps = 1e-4
        k = MatrixTuple.from_scalars([(1j - eps), (1j - eps)])
        k = k * (1.0 / k.max_component_norm())
        path = evaluate_sequence(h1, t, k, 6, my_first_step(eps))
        monkeypatch.setattr(boundary, "APERTURE_CAP", 1e3)
        with pytest.raises(PreconditionError, match="tangential"):
            tfae_report(path, boundary_point(h1.delta, t))


def my_first_step(eps):
    # keep T + tK inside: need t < 2 eps (up to normalization)
    return 0.8 * eps


class TestNontangentialBound:
    def test_quotient_bounded_by_four_alpha_c_squared(self, h1, rng):
        # along any inside sequence, q(Z) <= 4 alpha c(Z)^2 pointwise
        cases = [
            (h1, scalars(1.0, 1.0), 1.0),
        ]
        delta = polydisk_delta(2)
        for k in range(3):
            handle = NcFunctionHandle(
                realization=random_realization(1, 2, seed=700 + k), delta=delta
            )
            t = random_unitary_tuple(rng, 2, 2)
            est = estimate_alpha(evaluate_sequence(handle, t, None, 18, SEQUENCE_FIRST_STEP))
            assert est.converged
            cases.append((handle, t, est.alpha))
        from ncjulia import generate_sequence

        for handle, t, alpha in cases:
            for direction in (None, -1.0 * t):
                pts = generate_sequence(handle.delta, t, direction, 12, SEQUENCE_FIRST_STEP)
                # the aperture ||Delta(Z) - Delta(T)|| / (1 - ||Delta(Z)||^2) of each point
                gap = operator_norm(pts.stack.delta - boundary_point(handle.delta, t).delta)
                apertures = gap / (1.0 - pts.stack.norms**2)
                for z, c in zip(stack_points(pts.stack), apertures):
                    q = julia_quotient(evaluate(handle, z)).value
                    assert q <= 4.0 * alpha * c**2 * (1 + 1e-6) + 1e-8

    def test_model_norm_squared_matches_alpha_for_homogeneous(self, rng):
        # radial quotient limit equals the squared norm of the boundary model
        # vector, for every random unitary colligation over the polydisk
        delta = polydisk_delta(2)
        for k in range(5):
            handle = NcFunctionHandle(
                realization=random_realization(1 + k % 2, 2, seed=900 + k), delta=delta
            )
            t = random_unitary_tuple(rng, 2, int(rng.integers(1, 3)))
            est = estimate_alpha(evaluate_sequence(handle, t, None, 18, SEQUENCE_FIRST_STEP))
            model = boundary_model(handle, boundary_point(handle.delta, t))
            assert model.range_residual <= 1e-8
            assert abs(model.alpha_model - est.alpha) <= 1e-6


class TestAnalyzeBpoint:
    # Ratchet: the np.linalg.svd calls of one analyze_bpoint run on example-h1 (100 Julia
    # samples), pinned exactly.  A change that takes fewer lowers the pin; none raises it.
    SVD_CALLS = 320

    @pytest.mark.parametrize("n", [1, 2])
    def test_svd_calls_only_go_down(self, h1, n, monkeypatch):
        svd, calls = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(a) or svd(*a, **kw))
        t = random_unitary_tuple(np.random.default_rng(7), 2, n)
        analyze_bpoint(h1, t, julia_samples=100, seed=1)
        assert len(calls) == self.SVD_CALLS

    def test_witness_search_does_not_follow_the_seed(self):
        # -T fails on diag(x0, 3 x1 - 2 x1^2) at (1, 1): the search runs and draws nothing,
        # while the Julia sweep still samples by the seed
        h = NcFunctionHandle(random_realization(1, 2, seed=3), witness_grid())
        t, ray = scalars(1.0, 1.0), scalars(-1.0, 1.0)
        one, two = (
            analyze_bpoint(h, t, direction=ray, julia_samples=5, seed=seed) for seed in (1, 2)
        )
        a, b = one.range_test.inward_witness, two.range_test.inward_witness
        assert a.found and (a.found, a.beta) == (b.found, b.beta)
        assert all(map(np.array_equal, a.witness.components, b.witness.components))
        assert one.julia.max_ratio != two.julia.max_ratio

    def test_example_full_report(self, h1):
        rep = analyze_bpoint(h1, scalars(1.0, 1.0), julia_samples=50, seed=3)
        assert rep.is_bpoint and not rep.range_test.conditional
        assert rep.point.distinguished
        assert rep.alpha.alpha == pytest.approx(1.0, abs=1e-8)
        assert rep.boundary_value.W[0, 0] == pytest.approx(1.0, abs=1e-8)
        assert rep.range_test.model.alpha_model == pytest.approx(1.0, abs=1e-10)
        assert rep.range_test.model.range_residual <= 1e-10
        assert rep.julia.violations == 0
        assert rep.julia.checked == 50 - rep.julia.skipped
        assert rep.julia.identity_max <= 1e-8
        assert rep.tfae is not None

    def test_interior_point_rejected(self, h1):
        with pytest.raises(PreconditionError, match="interior"):
            analyze_bpoint(h1, scalars(0.5, 0.3))

    def test_outside_point_rejected(self, h1):
        with pytest.raises(PreconditionError, match="outside"):
            analyze_bpoint(h1, scalars(1.5, 0.0))

    def test_non_distinguished_boundary_quotient_only(self, h1):
        rep = analyze_bpoint(h1, scalars(1.0, 0.5), julia_samples=10, seed=1)
        assert not rep.point.distinguished
        assert rep.range_test is None and rep.tfae is None
        assert rep.alpha.converged
        assert rep.is_bpoint

    def test_w_unitary_when_reported(self, h1, rng):
        rep = analyze_bpoint(h1, scalars(1.0, 1.0), julia_samples=5, seed=9)
        w = rep.boundary_value.W
        assert operator_norm(w.conj().T @ w - np.eye(1)) <= 1e-8

    def test_ray_rule_matches_radial_verdict(self, h1):
        t = scalars(1.0, 1.0)
        rep = analyze_bpoint(h1, t, direction=-1.0 * t, julia_samples=10, seed=5)
        assert rep.is_bpoint and rep.path.points.kind == "ray"
        assert rep.alpha.alpha == pytest.approx(1.0, abs=1e-8)
        assert not rep.alpha.is_liminf  # only radial sequences earn that label

    def test_inconsistent_specimen_not_bpoint(self):
        rep = analyze_bpoint(inconsistent_handle(), scalars(1.0), julia_samples=5, seed=2)
        assert not rep.is_bpoint
        assert rep.range_test.model.range_residual == pytest.approx(1.0)
        assert rep.alpha.diverging

    def test_padded_column_grid_divergence_overrides_range_test(self):
        # zero-padded column grid: a generic colligation passes the range
        # test at a distinguished point, yet the radial quotient diverges
        # because the padded block of the model never shrinks; the verdict
        # must follow the quotient
        from ncjulia import ball_delta

        handle = NcFunctionHandle(
            realization=random_realization(2, 2, seed=21), delta=ball_delta(2)
        )
        t = scalars(0.6, 0.8)
        rep = analyze_bpoint(handle, t, julia_samples=5, seed=3)
        assert rep.point.distinguished
        assert rep.range_test.model.range_residual <= 1e-10
        assert rep.alpha.diverging
        assert not rep.is_bpoint

    def test_each_point_evaluated_once(self, h1, monkeypatch):
        from ncjulia import boundary

        # rows of the evaluations that evaluate_stack returns, to the sequence and the sweep
        calls = {"evaluate": 0, "generate_sequence": 0}
        counters = (
            ("evaluate_stack", "evaluate", lambda result: len(result.phi)),
            ("generate_sequence", "generate_sequence", lambda result: 1),
        )
        for name, key, points in counters:
            def counted(*args, _key=key, _points=points, _original=getattr(boundary, name), **kwargs):
                result = _original(*args, **kwargs)
                calls[_key] += _points(result)
                return result

            monkeypatch.setattr(boundary, name, counted)
        analyze_bpoint(h1, scalars(1.0, 1.0), julia_samples=200, seed=1)
        # 12 approach points and 200 Julia samples, one sequence
        assert calls == {"evaluate": 212, "generate_sequence": 1}

    def test_each_julia_quotient_computed_once(self, h1, monkeypatch):
        from ncjulia import boundary

        rows = []  # the points of each call: one evaluated point, or each row of a stack
        original = boundary.julia_quotient

        def counted(ev):
            rows.append(1 if ev.phi.ndim == 2 else len(ev.phi))
            return original(ev)

        monkeypatch.setattr(boundary, "julia_quotient", counted)
        rep = analyze_bpoint(h1, scalars(1.0, 1.0), julia_samples=0, seed=1)
        # estimate_alpha and tfae_report both read the quotients of the 12 approach points,
        # computed by one call on the sequence's stack
        assert len(rep.path.quotients.value) == 12 and len(rep.path.points.steps) == 12
        assert rows == [12]

    def test_delta_at_T_evaluated_once(self, h1, monkeypatch):
        from ncjulia import domain

        t = scalars(1.0, 1.0)
        calls = {"eval_delta": 0, "eval_words": 0}
        at_t = {"eval_delta": lambda x: x is t, "eval_words": lambda c: c is t.components}
        for name in calls:
            def counted(first, x, *args, _name=name, _original=getattr(domain, name), **kwargs):
                calls[_name] += at_t[_name](x)
                return _original(first, x, *args, **kwargs)

            monkeypatch.setattr(domain, name, counted)
        rep = analyze_bpoint(h1, t, julia_samples=10, seed=1)
        assert rep.range_test is not None
        # one evaluation of the grid at T: each non-zero entry of polydisk:2 once
        assert calls == {"eval_delta": 1, "eval_words": 2}

    def test_one_delta_evaluation_per_julia_sample(self, h1, monkeypatch):
        from ncjulia import boundary, domain

        sweeping, swept = [], []  # swept: an eval_delta call made inside julia_sweep
        original, sweep = domain.eval_delta, boundary.julia_sweep

        def counted(delta, x):
            swept.extend(sweeping)
            return original(delta, x)

        def in_sweep(*args):
            sweeping.append(True)
            try:
                return sweep(*args)
            finally:
                sweeping.pop()

        monkeypatch.setattr(domain, "eval_delta", counted)
        # rows of the stacked Delta evaluations made while scaling the samples
        sampling, stacked_rows = [], []
        into_domain, stack = domain.scale_into_domain, domain._eval_delta_stack

        def scaling(*args, **kwargs):
            sampling.append(True)
            try:
                return into_domain(*args, **kwargs)
            finally:
                sampling.pop()

        def stacked(delta, components):
            if sampling:
                stacked_rows.append(components[0].shape[0])
            return stack(delta, components)

        monkeypatch.setattr(boundary, "scale_into_domain", scaling)
        monkeypatch.setattr(domain, "_eval_delta_stack", stacked)
        monkeypatch.setattr(boundary, "julia_sweep", in_sweep)
        samples, stacks = [], []  # the checked rows; the stacks evaluated, with their evaluations
        check_at, evaluate_stack = boundary.julia_inequality_check, boundary.evaluate_stack

        def recorded(ev, *args):
            samples.append(ev)
            return check_at(ev, *args)

        def recorded_stack(h, stack):
            stacks.append((stack, evaluate_stack(h, stack)))
            return stacks[-1][1]

        monkeypatch.setattr(boundary, "julia_inequality_check", recorded)
        monkeypatch.setattr(boundary, "evaluate_stack", recorded_stack)
        analyze_bpoint(h1, scalars(1.0, 1.0), julia_samples=50, seed=1)
        assert len(samples) == 50 and swept == []
        # the sequence's stack, then one block of samples, whose rows were checked in order
        assert [len(stack.norms) for stack, _ in stacks] == [12, 50]
        (block, evaluation) = stacks[1]
        for k, ev in enumerate(samples):
            assert ev.phi.base is evaluation.phi and np.array_equal(ev.phi, evaluation.phi[k])
        # one row per halving round of each sample, as the sequential sampler takes them
        oracle_rng = np.random.default_rng(1)
        oracle = [sequential_interior_sample(h1.delta, 1, oracle_rng) for _ in range(50)]
        assert sum(stacked_rows) == sum(rounds for *_, rounds in oracle)
        for x, (x0, *_) in zip(stack_points(block), oracle):
            assert all(np.array_equal(a, b) for a, b in zip(x.components, x0.components))

    def test_one_delta_evaluation_per_approach_point(self, h1, monkeypatch):
        from ncjulia import domain

        rows = {"eval_delta": 0, "entries": 0, "lift": 0}
        original, words = domain.eval_delta, domain.eval_words

        def counted(delta, x):
            rows["eval_delta"] += 1
            return original(delta, x)

        def entry_points(p, components):
            # the points are 1 x 1; a 2 x 2 point is the lift [[T, K], [0, T]] of a derivative
            key = "lift" if components[0].shape[-1] == 2 else "entries"
            rows[key] += int(np.prod(components[0].shape[:-2]))
            return words(p, components)

        monkeypatch.setattr(domain, "eval_delta", counted)
        monkeypatch.setattr(domain, "eval_words", entry_points)
        rep = analyze_bpoint(h1, scalars(1.0, 1.0), julia_samples=0, seed=1)
        # Delta(T) once, and each of the 12 approach points once, for membership and evaluation:
        # each non-zero entry of polydisk:2 at those 13 points, and at the one lift the witness
        # search reads
        assert len(rep.path.points.steps) == 12 and rep.path.points.dropped == 0
        assert rows == {"eval_delta": 1, "entries": 2 * 13, "lift": 2}

    def test_negative_sample_count_raises(self, h1, monkeypatch):
        from ncjulia import domain

        bp = boundary_point(h1.delta, scalars(1.0, 1.0))
        model = boundary_model(h1, bp)
        evaluated = []
        stacked, single = domain._eval_delta_stack, domain.eval_delta
        monkeypatch.setattr(
            domain, "_eval_delta_stack", lambda *a: evaluated.append(a) or stacked(*a)
        )
        monkeypatch.setattr(domain, "eval_delta", lambda *a: evaluated.append(a) or single(*a))
        message = "sample count must be at least 0, got -1"
        with pytest.raises(PreconditionError, match=message):
            analyze_bpoint(h1, scalars(1.0, 1.0), julia_samples=-1)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(PreconditionError, match=message):
            julia_sweep(h1, rng, -1, bp, np.eye(1), 1.0, model)
        # nothing drawn and no Delta evaluated; a count of 0 is legal and draws nothing
        assert evaluated == [] and rng.bit_generator.state == state
        assert julia_sweep(h1, rng, 0, bp, np.eye(1), 1.0, model) == JuliaSweep()
        assert evaluated == [] and rng.bit_generator.state == state
        assert analyze_bpoint(h1, scalars(1.0, 1.0), julia_samples=0, seed=1).julia == JuliaSweep()

    def test_margin_outside_unit_interval_evaluates_nothing(self, h1, monkeypatch):
        from ncjulia import domain

        calls = []
        stack = domain._eval_delta_stack

        def stacked(delta, components):
            calls.append(components[0].shape[0])
            return stack(delta, components)

        monkeypatch.setattr(domain, "_eval_delta_stack", stacked)
        with pytest.raises(PreconditionError, match=r"margin must lie in \(0, 1\)"):
            random_interior_point(h1.delta, 1, np.random.default_rng(0), margin=1.0)
        assert calls == []
        # the same patch sees the stacked evaluations of a valid margin
        random_interior_point(h1.delta, 1, np.random.default_rng(0), margin=0.5)
        assert calls

    def test_shared_evaluations_match_public_functions(self, h1, rng):
        t = random_unitary_tuple(rng, 2, 2)
        rep = analyze_bpoint(h1, t, julia_samples=20, seed=4)
        path = evaluate_sequence(h1, t, None, 12, SEQUENCE_FIRST_STEP)
        assert estimate_alpha(path) == rep.alpha
        assert np.array_equal(extract_W(path).W, rep.boundary_value.W)
        assert tfae_report(path, boundary_point(h1.delta, t)) == rep.tfae
        sample_rng = np.random.default_rng(4)
        ratios, residuals = [], []
        for _ in range(20):
            z = random_interior_point(h1.delta, t.n, sample_rng, margin=0.05)
            ev, bp = evaluate(h1, z), boundary_point(h1.delta, t)
            check = julia_inequality_check(ev, bp, rep.boundary_value.W, rep.alpha.alpha)
            if check.skipped:
                continue
            if check.rhs > 0:
                ratios.append(check.lhs / check.rhs)
            residuals.append(
                boundary_identity_residual(rep.range_test.model, rep.boundary_value.W, ev)
            )
        assert max(ratios) == rep.julia.max_ratio
        assert max(residuals) == rep.julia.identity_max



def _verdict_case(source, arg, seed):
    """(handle, T, whether T is a B-point) of one case of the verdict-stability test."""
    from ncjulia import get_delta, haar_unitary

    rng = np.random.default_rng(seed)
    if source == "inconsistent":
        return inconsistent_handle(), scalars(arg), False
    if source == "example-h1":
        return get_fixture(source).handle, random_unitary_tuple(rng, 2, arg), True
    delta = get_delta(source)
    colligation = random_realization(1 + seed % 2, delta.J, seed)
    handle = NcFunctionHandle(realization=colligation, delta=delta)
    if source == "polydisk:2":
        return handle, random_unitary_tuple(rng, 2, arg), True
    if source == "cartan:2":  # Delta(T) = [[cV, isV], [isV, cV]] is unitary
        v, c, s = haar_unitary(arg, rng), np.cos(0.7), np.sin(0.7)
        return handle, MatrixTuple((c * v, 1j * s * v, c * v)), True
    u = haar_unitary(2 * arg, rng)  # ball:2 at a column isometry, where the quotient diverges
    return handle, MatrixTuple((u[:arg, :arg], u[arg:, :arg])), False


class TestVerdictStability:
    @pytest.mark.parametrize("source, arg, seed", [
        ("example-h1", 1, 1),
        ("example-h1", 2, 2),
        ("polydisk:2", 1, 3),
        ("polydisk:2", 2, 4),
        ("polydisk:2", 2, 5),
        ("cartan:2", 1, 6),
        ("cartan:2", 2, 7),
        ("ball:2", 1, 8),
        ("ball:2", 2, 9),
        ("inconsistent", 1.0, 10),
        ("inconsistent", 1j, 11),
        ("inconsistent", np.exp(0.3j), 12),
    ])
    def test_same_under_similarity_seed_and_json_round_trip(self, source, arg, seed):
        import json

        from ncjulia import (
            delta_from_json,
            delta_to_json,
            haar_unitary,
            realization_from_json,
            realization_to_json,
            tuple_from_json,
            tuple_to_json,
        )
        from oracles import similarity

        handle, t, expected = _verdict_case(source, arg, seed)

        def verdict(point, sweep_seed, h=handle):
            rep = analyze_bpoint(h, point, julia_samples=20, seed=sweep_seed)
            range_verdict = None if rep.range_test is None else rep.range_test.is_bpoint
            alpha = rep.alpha
            return (
                rep.is_bpoint, alpha.converged, alpha.diverging, range_verdict,
                rep.julia.violations == 0,
            )

        def round_trip(obj):
            return json.loads(json.dumps(obj))

        base = verdict(t, 1)
        assert base[0] == expected
        if source == "inconsistent":  # a non-isometric colligation: no range verdict is decisive
            assert analyze_bpoint(handle, t, julia_samples=0, seed=1).range_test.conditional
        u = haar_unitary(t.n, np.random.default_rng(seed))
        assert verdict(similarity(t, u), 1) == base
        assert verdict(t, 7) == base
        assert verdict(tuple_from_json(round_trip(tuple_to_json(t))), 1) == base

        colligation = round_trip(realization_to_json(handle.realization))
        if source == "inconsistent":  # loads only past the one isometry check
            with pytest.raises(PreconditionError, match="not an isometry"):
                realization_from_json(colligation)
            loaded = realization_from_json(colligation, isometry_tol=np.inf)
        else:
            loaded = realization_from_json(colligation)
        grid = delta_from_json(round_trip(delta_to_json(handle.delta)))
        loaded_handle = NcFunctionHandle(realization=loaded, delta=grid)
        assert verdict(t, 1, loaded_handle) == base
