import numpy as np
import pytest

from ncjulia import (
    Colligations,
    DeltaMatrix,
    DimensionError,
    MatrixTuple,
    NcFunctionHandle,
    PointStack,
    PreconditionError,
    Realization,
    direct_sum,
    eval_delta,
    eval_phi,
    eval_phi_neumann,
    eval_u,
    evaluate,
    evaluate_stack,
    get_delta,
    identity_defect,
    get_fixture,
    in_G_delta,
    lift,
    model_identity_defects,
    model_residual,
    operator_norm,
    parse_poly,
    perturb_colligations,
    perturb_realization,
    polydisk_delta,
    random_colligations,
    random_interior_point,
    random_realization,
    realization_from_json,
    realization_to_json,
    resolvent_condition,
    similarity,
)
from ncjulia import realization
from ncjulia.errors import ParseError
from ncjulia.domain import _eval_delta_stack
from ncjulia.numerics import operator_norms
from ncjulia.realization import (
    ISOMETRY_TOL,
    NearSingularResolventWarning,
    _model_operators,
    _phi_from,
)

from conftest import near_identity, random_matrix, random_tuple, sequential_interior_sample


@pytest.fixture
def h1():
    return get_fixture("example-h1").handle


def scalars(*zs):
    return MatrixTuple.from_scalars(zs)


class TestRealizationType:
    def test_isometry_enforced(self, rng):
        r = random_realization(2, 2, seed=1)
        bad = r.D + 0.05 * np.ones_like(r.D)
        with pytest.raises(PreconditionError):
            Realization(dim_E=2, J=2, A=r.A, B=r.B, C=r.C, D=bad)

    def test_shapes_enforced(self):
        with pytest.raises(DimensionError):
            Realization(dim_E=1, J=2, A=np.zeros((1, 1)), B=np.zeros((1, 2)),
                        C=np.zeros((3, 1)), D=np.zeros((2, 2)))

    def test_handle_requires_matching_J(self):
        r = random_realization(1, 3, seed=0)
        with pytest.raises(DimensionError):
            NcFunctionHandle(realization=r, delta=polydisk_delta(2))


class TestTensorLayout:
    def test_kronecker_order_pinned(self, rng):
        """E slowest, then C^J, then C^n fastest.

        The model operators, phi and the identity defect, which never form a
        Kronecker factor, match the explicit np.kron formulas; the step also
        matches index contractions on a reshaped (m, J, n) tensor.
        """
        tol = {"rtol": 1e-12, "atol": 1e-13}
        layouts = [
            (f"polydisk:{j}", m, n) for m in (1, 2, 3) for j in (1, 2, 3) for n in (1, 2, 5)
        ] + [("ball:3", m, n) for m in (1, 2, 3) for n in (1, 2, 5)]
        for seed, (name, m, n) in enumerate(layouts):
            delta = get_delta(name)
            j = delta.J
            r = random_realization(m, j, seed=seed)
            x = random_tuple(rng, delta.d, n)
            big = eval_delta(delta, x)
            eye_n = np.eye(n)
            delta_op = np.kron(np.eye(m), big)
            step_kron = np.kron(r.D, eye_n) @ delta_op

            resolvent, rhs, step = _model_operators(r, big, n)
            np.testing.assert_allclose(step, step_kron, **tol)
            np.testing.assert_allclose(resolvent, np.eye(m * j * n) - step_kron, **tol)
            np.testing.assert_array_equal(rhs, np.kron(r.C, eye_n))

            v = rng.standard_normal(m * j * n) + 1j * rng.standard_normal(m * j * n)
            # (I_m kron Delta) acts on (j, n), then (D kron I_n) on (e, j)
            acted = np.einsum("JiKl,eKl->eJi", big.reshape(j, n, j, n), v.reshape(m, j, n))
            acted = np.einsum("eJfK,fKi->eJi", np.asarray(r.D).reshape(m, j, m, j), acted)
            np.testing.assert_allclose(step @ v, acted.reshape(-1), **tol)

            u = random_matrix(rng, m * j * n, n)
            phi_kron = r.A[0, 0] * eye_n + np.kron(r.B, eye_n) @ delta_op @ u
            phi = _phi_from(r, big, u, n)
            np.testing.assert_allclose(phi, phi_kron, **tol)

            delta_y = eval_delta(delta, random_tuple(rng, delta.d, n))
            u_y = random_matrix(rng, m * j * n, n)
            phi_y = random_matrix(rng, n)
            middle = np.kron(np.eye(m), np.eye(j * n) - delta_y.conj().T @ big)
            defect_kron = operator_norm(
                eye_n - phi_y.conj().T @ phi - u_y.conj().T @ middle @ u
            )
            np.testing.assert_allclose(
                identity_defect(r, (phi_y, u_y, delta_y), (phi, u, big)), defect_kron, **tol
            )


class TestExampleEvaluation:
    def test_u_at_origin_is_C(self, h1):
        u = eval_u(h1, scalars(0.0, 0.0))
        np.testing.assert_allclose(u, h1.realization.C, atol=1e-14)

    def test_u_norm_one_along_diagonal(self, h1):
        # D C = 0 for this colligation, so u(r, r) = C for every r
        for r in (0.1, 0.5, 0.9):
            u = eval_u(h1, scalars(r, r))
            assert operator_norm(u) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_phi_at_origin_is_A(self, h1):
        assert eval_phi(h1, scalars(0.0, 0.0))[0, 0] == pytest.approx(0.0, abs=1e-15)

    def test_phi_derived_value(self, h1):
        # hand 2x2 solve: phi(0.5, 0.3) = 5/12
        assert eval_phi(h1, scalars(0.5, 0.3))[0, 0] == pytest.approx(5.0 / 12.0, abs=1e-12)

    def test_equal_arguments_collapse(self, h1, rng):
        z = 0.7 * near_identity(rng, 3, 0.2)
        z /= max(1.0, 1.1 * np.linalg.norm(z, 2))
        x = MatrixTuple((z, z))
        np.testing.assert_allclose(eval_phi(h1, x), z, atol=1e-10)

    def test_interior_precondition(self, h1):
        with pytest.raises(PreconditionError):
            eval_u(h1, scalars(1.0, 0.0))
        with pytest.raises(PreconditionError):
            eval_phi(h1, scalars(1.5, 0.0))

    def test_near_singular_warning(self, h1):
        r = 1.0 - 1e-13
        with pytest.warns(NearSingularResolventWarning):
            eval_u(h1, scalars(r, r))


def evaluate_stacked(h, xs):
    """``evaluate_stack`` at xs, stacked as ``generate_sequence`` stacks its points.

    One stacked Delta(x) for all points, and their norms from one batched SVD.
    """
    components = np.stack([x.components for x in xs], axis=1)
    big_delta = _eval_delta_stack(h.delta, components)
    return evaluate_stack(h, PointStack(components, big_delta, operator_norms(big_delta)))


class TestEvaluateStack:
    FIELDS = ("delta", "delta_norm", "resolvent", "u", "phi")

    def test_evaluate_stack_matches_evaluate(self, h1):
        rng = np.random.default_rng(1606)
        handles = [h1] + [
            NcFunctionHandle(random_realization(dim_e, get_delta(name).J, seed), get_delta(name))
            for seed, (name, dim_e) in enumerate((("polydisk:2", 2), ("ball:3", 2), ("cartan:2", 1)))
        ]
        assert np.shape(handles[2].delta.entries) == (3, 1)  # ball:3 is zero padded
        # constant words, products, powers and a padded zero row
        grid = [[parse_poly("0.3 + 0.5*x0*x1", 2), parse_poly("0.2i*x1^2 - 0.4*x0", 2)]]
        mixed = DeltaMatrix(2, grid)
        handles.append(NcFunctionHandle(random_realization(2, mixed.J, 7), mixed))
        for h in handles:
            for n in (1, 2, 5):
                for b in (1, 3, 10):
                    xs = [random_interior_point(h.delta, n, rng, margin=0.01) for _ in range(b)]
                    many = evaluate_stacked(h, xs)
                    assert len(many) == b
                    for x, ev in zip(xs, many):
                        one = evaluate(h, x)
                        assert all(map(np.array_equal, ev.x.components, x.components))
                        assert type(ev.delta_norm) is float
                        for name in self.FIELDS:
                            assert np.array_equal(getattr(ev, name), getattr(one, name)), name

    def test_stack_with_a_boundary_point_rejected(self, h1):
        xs = [MatrixTuple.from_scalars([0.5, 0.3]), MatrixTuple.from_scalars([1.0, 0.2])]
        with pytest.raises(PreconditionError, match="not inside the domain"):
            evaluate_stacked(h1, xs)

    def test_stacked_solve_gets_stacked_rhs(self, h1, monkeypatch):
        # numpy 1.x reads a b with one axis fewer than a stacked a as a stack of vectors
        solve = np.linalg.solve
        shapes = []

        def matrix_rhs_only(a, b):
            shapes.append((a.shape, b.shape))
            assert a.ndim == 2 or b.ndim == a.ndim
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", matrix_rhs_only)
        xs = [MatrixTuple((0.1 * np.eye(2), 0.2 * np.eye(2)))] * 3
        evaluate_stacked(h1, xs)
        assert shapes == [((3, 4, 4), (3, 4, 2))]


class TestNeumann:
    def test_exact_at_origin(self, h1):
        res = eval_phi_neumann(h1, scalars(0.0, 0.0), terms=0)
        assert res.value[0, 0] == pytest.approx(0.0, abs=1e-15)
        assert res.contraction_factor == 0.0

    def test_agreement_within_bound(self, h1, rng):
        for _ in range(20):
            x = random_tuple(rng, 2, 2, max_norm=0.9)
            direct = eval_phi(h1, x)
            res = eval_phi_neumann(h1, x, terms=200)
            assert operator_norm(direct - res.value) <= res.truncation_bound + 1e-10

    def test_agreement_with_larger_model_space(self, rng):
        # dim_E > 1 exercises the full Kronecker layout in both paths
        delta = polydisk_delta(2)
        for k in range(10):
            r = random_realization(3, 2, seed=600 + k)
            handle = NcFunctionHandle(realization=r, delta=delta)
            x = random_tuple(rng, 2, 2, max_norm=0.85)
            direct = eval_phi(handle, x)
            res = eval_phi_neumann(handle, x, terms=250)
            assert operator_norm(direct - res.value) <= res.truncation_bound + 1e-10

    def test_partial_sums_match_series_formula(self, h1, rng):
        # independent series: phi_K = (Z1+Z2)/2
        #   + (Z1-Z2) [sum_{k=0}^{K-1} 2^-k (Z1+Z2)^k] (Z1-Z2) / 4
        x = random_tuple(rng, 2, 2, max_norm=0.9)
        z1, z2 = x.components
        splus, sminus = z1 + z2, z1 - z2
        for K in (1, 2, 5):
            inner = np.zeros_like(z1)
            power = np.eye(2, dtype=complex)
            for k in range(K):
                inner += 2.0**-k * power
                power = power @ splus
            series = 0.5 * splus + 0.25 * sminus @ inner @ sminus
            res = eval_phi_neumann(h1, x, terms=K)
            np.testing.assert_allclose(res.value, series, atol=1e-12)

    def test_inapplicable_when_not_contracting(self, h1):
        broken = perturb_realization(h1.realization, eps=2.5, seed=0)
        handle = NcFunctionHandle(realization=broken, delta=h1.delta)
        with pytest.raises(PreconditionError):
            eval_phi_neumann(handle, scalars(0.9, 0.9), terms=10)


class TestModelResidual:
    def test_at_origin(self, h1):
        assert model_residual(h1, scalars(0.0, 0.0), scalars(0.0, 0.0)) <= 1e-14

    def test_random_pairs_small(self, rng):
        delta = polydisk_delta(2)
        for k in range(50):
            r = random_realization(int(rng.integers(1, 3)), 2, seed=100 + k)
            handle = NcFunctionHandle(realization=r, delta=delta)
            n = int(rng.integers(1, 3))
            x = random_interior_point(delta, n, rng)
            y = random_interior_point(delta, n, rng)
            assert model_residual(handle, x, y) <= 1e-10

    def test_same_point_evaluated_once(self, h1, monkeypatch):
        from ncjulia import realization

        calls = []
        original = realization.evaluate
        monkeypatch.setattr(
            realization, "evaluate", lambda h, x: calls.append(x) or original(h, x)
        )
        x = scalars(0.5, 0.3)
        residual = model_residual(h1, x, x)
        assert len(calls) == 1
        assert residual == model_residual(h1, x, scalars(0.5, 0.3))
        assert len(calls) == 3

    def test_perturbed_colligation_fails(self, h1):
        broken = perturb_realization(h1.realization, eps=0.05, seed=4)
        handle = NcFunctionHandle(realization=broken, delta=h1.delta)
        assert model_residual(handle, scalars(0.5, 0.3), scalars(0.5, 0.3)) > 1e-3

    def test_norm_chain_bound(self, rng):
        # ||u(x)||^2 <= ||I - phi* phi|| / (1 - ||delta||^2) up to tolerance
        delta = polydisk_delta(2)
        for k in range(20):
            r = random_realization(1, 2, seed=300 + k)
            handle = NcFunctionHandle(realization=r, delta=delta)
            x = random_interior_point(delta, 2, rng)
            u = eval_u(handle, x)
            phi = eval_phi(handle, x)
            nrm = operator_norm(eval_delta(delta, x))
            bound = operator_norm(np.eye(2) - phi.conj().T @ phi) / (1 - nrm**2)
            assert operator_norm(u) ** 2 <= bound + 1e-8


class TestRandomRealization:
    def test_isometry_defect(self):
        for seed in range(10):
            r = random_realization(2, 3, seed=seed)
            assert r.isometry_defect <= 1e-12

    def test_determinism(self):
        a = random_realization(2, 2, seed=42)
        b = random_realization(2, 2, seed=42)
        np.testing.assert_array_equal(a.colligation, b.colligation)

    def test_schur_bound_on_sweep(self, rng):
        delta = polydisk_delta(2)
        r = random_realization(2, 2, seed=11)
        handle = NcFunctionHandle(realization=r, delta=delta)
        for _ in range(100):
            x = random_interior_point(delta, int(rng.integers(1, 3)), rng)
            assert operator_norm(eval_phi(handle, x)) <= 1.0 + 1e-9


class TestColligationStacks:
    SEEDS = (5, 0, 123, 7, 2024)

    def test_stack_equals_looped_realizations(self):
        for dim_e, j in ((1, 1), (1, 2), (2, 2), (3, 3), (2, 6)):
            stack = random_colligations(dim_e, j, self.SEEDS)
            perturbed = perturb_colligations(stack, 0.05, self.SEEDS)
            assert isinstance(stack, Colligations) and (stack.dim_E, stack.J) == (dim_e, j)
            for k, seed in enumerate(self.SEEDS):
                r = random_realization(dim_e, j, seed)
                p = perturb_realization(r, 0.05, seed)
                for name in "ABCD":
                    assert np.array_equal(getattr(stack, name)[k], getattr(r, name)), name
                    assert np.array_equal(getattr(perturbed, name)[k], getattr(p, name)), name
                assert np.array_equal(stack.D[k], r.D) and not np.array_equal(perturbed.D[k], r.D)

    @pytest.mark.parametrize("name", ["polydisk:2", "ball:3", "cartan:2"])
    def test_stacked_defects_equal_model_residual(self, name):
        delta = get_delta(name)
        for dim_e in (1, 2, 3):
            for n in (1, 2):
                rng = np.random.default_rng(10 * dim_e + n)
                samples = [sequential_interior_sample(delta, n, rng) for _ in self.SEEDS]
                big_delta = np.stack([big for _, big, _, _ in samples])
                for eps in (None, 0.05):
                    stack = random_colligations(dim_e, delta.J, self.SEEDS)
                    if eps:
                        stack = perturb_colligations(stack, eps, self.SEEDS)
                    expected = []
                    for seed, (x, *_) in zip(self.SEEDS, samples):
                        r = random_realization(dim_e, delta.J, seed)
                        if eps:
                            r = perturb_realization(r, eps, seed)
                        expected.append(model_residual(NcFunctionHandle(r, delta), x, x))
                    assert model_identity_defects(stack, big_delta).tolist() == expected
                    assert max(expected) > 1e-3 if eps else max(expected) < 1e-12

    def test_stacked_isometry_check_is_the_realization_check(self, monkeypatch):
        good = random_realization(2, 2, 1).colligation
        broken = [good + eps * np.eye(len(good)) for eps in (1e-6, 1e-3)]
        with pytest.raises(PreconditionError) as one:
            Realization(2, 2, *realization._blocks(broken[0]))
        # random_colligations holds each colligation to ISOMETRY_TOL; the first failing one
        # is reported with Realization's message
        stack = np.stack([good, broken[0], good, broken[1]])
        monkeypatch.setattr(realization, "haar_unitaries", lambda n, rngs: stack[: len(rngs)])
        random_colligations(2, 2, [0])
        with pytest.raises(PreconditionError) as many:
            random_colligations(2, 2, [0, 1, 2, 3])
        assert str(many.value) == str(one.value) and "not an isometry" in str(one.value)
        defects = realization._isometry_defects(stack, np.inf)
        assert defects[0] == Realization(2, 2, *realization._blocks(good)).isometry_defect
        assert defects[1] > ISOMETRY_TOL
        with pytest.raises(PreconditionError, match="non-finite"):
            realization._isometry_defects(np.stack([good, good * np.nan]), np.inf)

    def test_resolvent_condition_is_public(self, h1):
        ev = evaluate(h1, scalars(0.5, 0.3))
        sv = np.linalg.svd(ev.resolvent, compute_uv=False)
        assert resolvent_condition(ev) == sv[0] / sv[-1]
        assert eval_u(h1, scalars(0.5, 0.3), return_cond=True)[1] == resolvent_condition(ev)


class TestNcAxioms:
    def test_direct_sum(self, rng):
        delta = polydisk_delta(2)
        r = random_realization(1, 2, seed=8)
        handle = NcFunctionHandle(realization=r, delta=delta)
        for _ in range(20):
            x = random_interior_point(delta, 2, rng)
            y = random_interior_point(delta, 2, rng)
            joint = eval_phi(handle, direct_sum(x, y))
            split = np.zeros_like(joint)
            split[:2, :2] = eval_phi(handle, x)
            split[2:, 2:] = eval_phi(handle, y)
            assert operator_norm(joint - split) <= 1e-8

    def test_similarity(self, rng):
        delta = polydisk_delta(2)
        r = random_realization(1, 2, seed=9)
        handle = NcFunctionHandle(realization=r, delta=delta)
        done = 0
        while done < 20:
            x = random_interior_point(delta, 2, rng, margin=0.3)
            s = near_identity(rng, 2, 0.1)
            xs = similarity(x, s)
            if not in_G_delta(delta, xs):
                continue
            lhs = eval_phi(handle, xs)
            rhs = np.linalg.solve(s, eval_phi(handle, x) @ s)
            assert operator_norm(lhs - rhs) <= 1e-8
            done += 1

    def test_upper_triangular_lift(self, h1, rng):
        # phi at [[x, k], [0, x]] is [[phi(x), phi'(x)[k]], [0, phi(x)]]
        step = 1e-5
        for n in (1, 2):
            x = random_interior_point(h1.delta, n, rng, margin=0.3)
            k = 0.1 * random_tuple(rng, 2, n)
            phi = evaluate(h1, MatrixTuple(tuple(lift(x, k)))).phi
            at_x = evaluate(h1, x).phi
            assert operator_norm(phi[:n, :n] - at_x) <= 1e-12
            assert operator_norm(phi[n:, n:] - at_x) <= 1e-12
            assert operator_norm(phi[n:, :n]) <= 1e-12
            central = (eval_phi(h1, x + step * k) - eval_phi(h1, x + (-step) * k)) / (2 * step)
            assert operator_norm(phi[:n, n:] - central) <= 1e-6


class TestJson:
    def test_round_trip(self):
        r = random_realization(2, 2, seed=17)
        again = realization_from_json(realization_to_json(r))
        np.testing.assert_allclose(again.colligation, r.colligation, atol=1e-16)

    def test_non_isometric_rejected(self):
        r = random_realization(1, 2, seed=18)
        broken = perturb_realization(r, eps=0.1, seed=1)
        with pytest.raises(PreconditionError):
            realization_from_json(realization_to_json(broken))

    def test_malformed(self):
        with pytest.raises(ParseError):
            realization_from_json({"dim_E": 1})
