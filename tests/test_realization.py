import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ncjulia import (
    DeltaMatrix,
    DimensionError,
    MatrixTuple,
    analyze_bpoint,
    boundary_point,
    gaussian_drafts,
    scale_into_domain,
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
    solve_uT,
)
from ncjulia import domain, realization
from ncjulia.errors import ParseError
from ncjulia.domain import _eval_delta_stack
from ncjulia.realization import (
    ISOMETRY_TOL,
    NearSingularResolventWarning,
    model_operators,
    _phi_from,
)

from conftest import (
    near_identity,
    padded_condition,
    padded_model_solution,
    random_matrix,
    random_tuple,
    sequential_interior_sample,
    solve_budget,
)


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

            resolvent, rhs, step = model_operators(r, big, n)
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


def assert_same_bits(got, fresh):
    for name in ("delta", "u", "phi"):
        assert getattr(got, name).tobytes() == getattr(fresh, name).tobytes(), name
    assert got.delta_norm == fresh.delta_norm


class TestLastEvaluationKept:
    """``evaluate`` keeps its last evaluation in one slot, for the same handle and point objects."""

    def test_same_objects_share_one_evaluation(self, h1):
        x = scalars(0.5, 0.3)
        ev = evaluate(h1, x)
        assert evaluate(h1, x) is ev
        assert eval_phi(h1, x) is ev.phi and eval_u(h1, x) is ev.u
        by_keyword = evaluate(h=h1, x=x)  # evaluated afresh, to the same bits
        assert by_keyword is not ev
        assert_same_bits(by_keyword, ev)

    def test_another_point_or_handle_is_evaluated_afresh(self):
        delta = get_delta("ball:3")
        rng = np.random.default_rng(11)
        h = NcFunctionHandle(random_realization(2, delta.J, 5), delta)
        other = NcFunctionHandle(random_realization(2, delta.J, 6), delta)
        x, y = (random_interior_point(delta, 3, rng) for _ in range(2))
        equal_x = MatrixTuple(x.components)  # equal entries, another object
        for handle, point in ((h, y), (other, x), (h, equal_x)):
            ev = evaluate(h, x)
            got = evaluate(handle, point)
            assert got is not ev
            assert_same_bits(got, evaluate.__wrapped__(handle, point))
        assert_same_bits(evaluate(h, x), evaluate.__wrapped__(h, x))

    def test_one_slot_holds_only_the_last_evaluation(self, h1):
        kept = weakref.ref(evaluate(h1, scalars(0.5, 0.3)))
        assert kept() is not None
        evaluate(h1, scalars(0.2, 0.1))
        assert kept() is None

    def test_evaluation_arrays_are_read_only(self, h1):
        ev = evaluate(h1, scalars(0.5, 0.3))
        for a in (ev.u, ev.phi, ev.delta):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0.0

    def test_refused_point_raises_on_every_call(self, h1):
        y = scalars(0.5, 0.3)
        ev = evaluate(h1, y)
        x = scalars(1.0, 0.0)
        for _ in range(2):
            with pytest.raises(PreconditionError, match="not inside the domain"):
                evaluate(h1, x)
        assert evaluate(h1, y) is ev  # the refused call left the slot as it was


class TestOneDeltaPerPoint:
    """``in_G_delta`` and ``evaluate`` read the kept ``boundary_point``: one Delta(x), one norm."""

    @pytest.fixture
    def delta_calls(self, monkeypatch):
        calls, at_delta = [], domain.eval_delta
        for module in (domain, realization):
            monkeypatch.setattr(module, "eval_delta", lambda *a: calls.append(a) or at_delta(*a))
        return calls

    @pytest.mark.parametrize("membership_first", [True, False])
    def test_membership_and_evaluation_share_one_delta(self, membership_first, delta_calls):
        delta = get_delta("ball:3")
        h = NcFunctionHandle(random_realization(2, delta.J, 3), delta)
        x = random_interior_point(delta, 4, np.random.default_rng(5))
        if membership_first:
            member, ev = in_G_delta(h.delta, x), evaluate(h, x)
        else:
            ev = evaluate(h, x)
            member = in_G_delta(h.delta, x)
        assert ev.delta is boundary_point(h.delta, x).delta
        assert len(delta_calls) == 1
        assert member.inside and member.norm == ev.delta_norm
        assert member.margin == 1.0 - ev.delta_norm
        fresh = _eval_delta_stack(h.delta, x.components)  # a fresh Delta, and its norm
        assert ev.delta.tobytes() == fresh.tobytes() and ev.delta_norm == operator_norm(fresh)

    def test_exterior_point_is_refused_and_not_kept(self, h1, delta_calls):
        y, x = scalars(0.5, 0.3), scalars(1.5, 0.5)
        ev = evaluate(h1, y)
        for _ in range(2):
            with pytest.raises(PreconditionError) as refused:
                evaluate(h1, x)
            assert str(refused.value) == "point is not inside the domain: ||delta(x)|| = 1.5"
        member = in_G_delta(h1.delta, x)
        assert not member.inside and member.norm == 1.5
        assert len(delta_calls) == 2  # y, then x: the refused x's kept point serves the rest
        assert evaluate(h1, y) is ev  # the refused calls left the slot as it was


class TestEvalBodyCounts:
    # Ratchet: the model solves, Delta evaluations, np.linalg.svd and np.linalg.qr calls of
    # the body of ``ncjulia eval`` through the library (membership, eval_u with its condition
    # number, eval_phi, model_residual at (x, x) and the norms of phi and u) at one point of
    # ball:3, n = 4, dim_E 2, and the side of the largest system solved and of the widest
    # matrix an SVD factors (the condition number's), pinned exactly.  The padded model
    # system is 24 x 24: its 8 active unknowns are solved for, and the condition number's
    # SVD is of a 16 x 16 matrix.  A change that takes fewer or smaller lowers a pin; none
    # raises it.
    SOLVES, DELTAS, SVDS, QRS = 1, 1, 5, 1
    SOLVE_SIZE, SVD_SIZE = 8, 16

    def test_eval_body_counts_only_go_down(self, monkeypatch):
        delta = get_delta("ball:3")
        h = NcFunctionHandle(random_realization(2, delta.J, 3), delta)
        x = random_interior_point(delta, 4, np.random.default_rng(5))
        calls = {"solve": [], "delta": [], "svd": [], "qr": []}

        def counted(name, fn):
            def call(*args, **kwargs):
                calls[name].append(args[0])
                return fn(*args, **kwargs)

            return call

        for name in ("solve", "svd", "qr"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        at_delta = counted("delta", domain.eval_delta)
        for module in (domain, realization):
            monkeypatch.setattr(module, "eval_delta", at_delta)
        in_G_delta(h.delta, x)
        u, _ = eval_u(h, x, return_cond=True)
        phi = eval_phi(h, x)
        model_residual(h, x, x)
        operator_norm(phi), operator_norm(u)
        counts = tuple(len(calls[name]) for name in ("solve", "delta", "svd", "qr"))
        assert counts == (self.SOLVES, self.DELTAS, self.SVDS, self.QRS)
        sizes = [max(np.shape(a)[-1] for a in calls[name]) for name in ("solve", "svd")]
        assert sizes == [self.SOLVE_SIZE, self.SVD_SIZE]


def stacked(h, xs):
    """xs stacked as ``generate_sequence`` stacks its points.

    One stacked Delta(x) for all points, and their norms from one batched SVD.
    """
    components = np.stack([x.components for x in xs], axis=1)
    big_delta = _eval_delta_stack(h.delta, components)
    return PointStack(components, big_delta, operator_norm(big_delta))


def evaluate_stacked(h, xs):
    """``evaluate_stack`` at xs, stacked as ``generate_sequence`` stacks its points."""
    return evaluate_stack(h, stacked(h, xs))


class TestEvaluateStack:
    FIELDS = ("delta", "delta_norm", "u", "phi")

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
                    stack = stacked(h, xs)
                    many = evaluate_stack(h, stack)
                    assert many.delta is stack.delta and many.delta_norm is stack.norms
                    assert {len(getattr(many, name)) for name in self.FIELDS} == {b}
                    for k in range(b):
                        x = stack.point(k)
                        assert all(map(np.array_equal, x.components, xs[k].components))
                        one, ev = evaluate(h, x), many.row(k)
                        assert type(ev.delta_norm) is float
                        for name in ("delta", "u", "phi"):  # views of the stack
                            assert np.shares_memory(getattr(ev, name), getattr(many, name))
                        for name in self.FIELDS:
                            assert np.array_equal(getattr(ev, name), getattr(one, name)), name
                            assert np.array_equal(getattr(many, name)[k], getattr(one, name))

    @pytest.mark.parametrize("name", ["ball:3", "polydisk:2"])
    def test_empty_stack_gives_an_empty_evaluation(self, name):
        delta = get_delta(name)
        h = NcFunctionHandle(random_realization(2, delta.J, 3), delta)
        stack = scale_into_domain(
            delta, gaussian_drafts(delta.d, 2, np.random.default_rng(0), 0), domain.SAMPLE_MARGIN
        )
        ev = evaluate_stack(h, stack)
        assert ev.delta is stack.delta and ev.delta_norm is stack.norms
        assert ev.u.shape == (0, 2 * delta.J * 2, 2) and ev.phi.shape == (0, 2, 2)
        assert ev.u.dtype == ev.phi.dtype == np.complex128
        at_x = (ev.phi, ev.u, ev.delta)
        defects = identity_defect(h.realization, at_x, at_x)
        assert isinstance(defects, np.ndarray) and defects.shape == (0,)

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

    def test_points_of_another_size_or_arity_rejected(self, h1):
        x = scalars(0.5, 0.3)
        for y in (MatrixTuple((0.1 * np.eye(2),) * 2), scalars(0.1, 0.1, 0.1)):
            for pair in ((x, y), (y, x)):
                with pytest.raises(DimensionError, match="share matrix size and variable count"):
                    model_residual(h1, *pair)

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

    def test_identity_defect_broadcasts_leading_axes(self, h1):
        # the boundary triple (W, u_T, Delta(T)) at T = (I, I) has no row axis; against a
        # stacked x, and as x against a stacked y, each row equals its one-point call
        bp = boundary_point(h1.delta, MatrixTuple((np.eye(2),) * 2))
        at_t = (np.eye(2, dtype=np.complex128), solve_uT(h1, bp).u_T, bp.delta)
        drafts = gaussian_drafts(2, 2, np.random.default_rng(4), 5)
        stack = scale_into_domain(h1.delta, drafts, 0.05)
        ev = evaluate_stack(h1, stack)
        at_z = (ev.phi, ev.u, ev.delta)
        rows = [(row.phi, row.u, row.delta) for row in map(ev.row, range(5))]
        r = h1.realization
        defects = identity_defect(r, at_t, at_z)
        assert defects.shape == (5,) and defects.max() < 1e-10
        assert np.array_equal(defects, [identity_defect(r, at_t, row) for row in rows])
        assert np.array_equal(
            identity_defect(r, at_z, at_t), [identity_defect(r, row, at_t) for row in rows]
        )

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
            for c in (stack, perturbed):
                assert isinstance(c, Realization) and (c.dim_E, c.J) == (dim_e, j)
                assert c.isometry_defect.shape == (len(self.SEEDS),)
                assert c.colligation.shape == (len(self.SEEDS), 1 + dim_e * j, 1 + dim_e * j)
            for k, seed in enumerate(self.SEEDS):
                r = random_realization(dim_e, j, seed)
                p = perturb_realization(r, 0.05, seed)
                for name in "ABCD":
                    assert np.array_equal(getattr(stack, name)[k], getattr(r, name)), name
                    assert np.array_equal(getattr(perturbed, name)[k], getattr(p, name)), name
                assert np.array_equal(stack.colligation[k], r.colligation)
                assert np.array_equal(r.colligation, np.block([[r.A, r.B], [r.C, r.D]]))
                assert np.array_equal(perturbed.colligation[k], p.colligation)
                # the defects, bit for bit: floats for one colligation, rows of the stack's
                assert isinstance(r.isometry_defect, float)
                assert stack.isometry_defect[k] == r.isometry_defect
                assert perturbed.isometry_defect[k] == p.isometry_defect
                assert np.array_equal(stack.D[k], r.D) and not np.array_equal(perturbed.D[k], r.D)

    def test_stack_blocks_are_frozen_copies(self):
        q = np.stack([random_realization(2, 2, seed).colligation for seed in self.SEEDS])
        stack = Realization(2, 2, *realization._blocks(q))
        for name in "ABCD":
            block = getattr(stack, name)
            assert block.dtype == np.complex128 and not block.flags.writeable
            assert not np.shares_memory(block, q)
        assert np.array_equal(stack.colligation, q)

    def test_stacked_constructor_refuses_bad_shapes(self):
        q = np.stack([random_realization(2, 2, seed).colligation for seed in self.SEEDS])
        a, b, c, d = realization._blocks(q)
        # leading axes that do not match
        for blocks in ((a, b[:3], c, d), (a, b, c, d[:4]), (a[:2], b, c, d)):
            with pytest.raises(DimensionError, match="has shape"):
                Realization(2, 2, *blocks)
        # a stacked block among unstacked ones, and the reverse
        with pytest.raises(DimensionError):
            Realization(2, 2, a[0], b, c, d)
        with pytest.raises(DimensionError, match="block B has shape"):
            Realization(2, 2, a, b[0], c, d)
        # wrong trailing shapes
        for blocks in ((a, b, c, d[:, :3]), (a, b[..., :3], c, d), (a, b, c[:, :, :0], d)):
            with pytest.raises(DimensionError, match="has shape"):
                Realization(2, 2, *blocks)
        with pytest.raises(DimensionError, match="expected"):
            Realization(2, 3, a, b, c, d)
        # a leading axis of more than one dimension
        with pytest.raises(DimensionError):
            Realization(2, 2, a[None], b[None], c[None], d[None])

    def test_stacked_constructor_refuses_a_nan_row(self):
        q = np.stack([random_realization(2, 2, seed).colligation for seed in self.SEEDS])
        q[3, 2, 1] = np.nan
        one = random_realization(2, 2, 1).colligation
        one[2, 2] = np.inf  # one colligation takes the same check, and warns nothing first
        for tol in (ISOMETRY_TOL, np.inf):
            for m in (q, one):
                with pytest.raises(PreconditionError, match="non-finite"):
                    Realization(2, 2, *realization._blocks(m), isometry_tol=tol)

    @pytest.mark.parametrize("points", [0, 1, 3])
    def test_stack_of_another_length_is_refused_before_it_is_split(self, points, monkeypatch):
        # split into one-row solves, a longer stack of colligations was read only in part
        fx = get_fixture("example-h1")
        h = NcFunctionHandle(random_colligations(1, fx.delta.J, self.SEEDS), fx.delta)
        drafts = gaussian_drafts(fx.delta.d, 1, np.random.default_rng(1), points)
        stack = scale_into_domain(fx.delta, drafts, 0.05)
        monkeypatch.setattr(domain, "BLOCK_BYTES", 1)
        assert realization.solve_rows(fx.delta, 1, 1) == 1
        with pytest.raises(DimensionError, match="5 stacked colligations need a stack of as many"):
            evaluate_stack(h, stack)

    def test_one_point_functions_refuse_a_stack(self):
        fx = get_fixture("example-h1")
        stack = random_colligations(1, fx.delta.J, self.SEEDS)
        h = NcFunctionHandle(stack, fx.delta)
        x = scalars(0.5, 0.3)
        for call in (
            lambda: evaluate(h, x),
            lambda: eval_phi_neumann(h, x, terms=10),
            lambda: model_residual(h, x, x),
            lambda: analyze_bpoint(h, scalars(1.0, 1.0)),
            lambda: realization_to_json(stack),
            # a stack of points of another length than the colligations
            lambda: evaluate_stack(h, scale_into_domain(
                fx.delta, gaussian_drafts(fx.delta.d, 1, np.random.default_rng(1), 3), 0.05
            )),
        ):
            with pytest.raises(DimensionError):
                call()

    @pytest.mark.parametrize("name", ["polydisk:2", "ball:3", "cartan:2"])
    def test_stacked_defects_equal_model_residual(self, name):
        delta = get_delta(name)
        for dim_e in (1, 2, 3):
            for n in (1, 2):
                rng = np.random.default_rng(10 * dim_e + n)
                samples = [sequential_interior_sample(delta, n, rng) for _ in self.SEEDS]
                points = PointStack(
                    np.stack([x.components for x, *_ in samples], axis=1),
                    np.stack([big for _, big, _, _ in samples]),
                    np.array([norm for _, _, norm, _ in samples]),
                )
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
                    ev = evaluate_stack(NcFunctionHandle(stack, delta), points)
                    at_x = (ev.phi, ev.u, ev.delta)
                    assert identity_defect(stack, at_x, at_x).tolist() == expected
                    assert max(expected) > 1e-3 if eps else max(expected) < 1e-12

    def test_stacked_isometry_check_is_the_realization_check(self, monkeypatch):
        good = random_realization(2, 2, 1).colligation
        broken = [good + eps * np.eye(len(good)) for eps in (1e-6, 1e-3)]
        with pytest.raises(PreconditionError) as one:
            Realization(2, 2, *realization._blocks(broken[0]))
        # a stacked Realization holds each colligation to its tolerance; the first failing
        # one is reported with the message of a Realization of that colligation alone
        stack = np.stack([good, broken[0], good, broken[1]])
        with pytest.raises(PreconditionError) as many:
            Realization(2, 2, *realization._blocks(stack))
        assert str(many.value) == str(one.value) and "not an isometry" in str(one.value)
        monkeypatch.setattr(realization, "haar_unitaries", lambda n, rngs: stack[: len(rngs)])
        random_colligations(2, 2, [0])
        with pytest.raises(PreconditionError) as drawn:
            random_colligations(2, 2, [0, 1, 2, 3])
        assert str(drawn.value) == str(one.value)
        unchecked = Realization(2, 2, *realization._blocks(stack), isometry_tol=np.inf)
        defects = unchecked.isometry_defect
        assert defects[0] == Realization(2, 2, *realization._blocks(good)).isometry_defect
        assert defects[1] > ISOMETRY_TOL
        assert defects[3] == Realization(
            2, 2, *realization._blocks(broken[1]), isometry_tol=np.inf
        ).isometry_defect

    def test_resolvent_condition_is_public(self, h1):
        ev = evaluate(h1, scalars(0.5, 0.3))
        # the evaluation keeps no model system; the condition number forms it from Delta(x)
        resolvent = model_operators(h1.realization, ev.delta, 1)[0]
        sv = np.linalg.svd(resolvent, compute_uv=False)
        assert resolvent_condition(h1, ev) == sv[0] / sv[-1]
        assert eval_u(h1, scalars(0.5, 0.3), return_cond=True)[1] == resolvent_condition(h1, ev)

    def test_resolvent_condition_refuses_a_stack(self, h1):
        xs = [scalars(0.5, 0.3), scalars(0.1, -0.2), scalars(0.0, 0.7)]
        ev = evaluate_stacked(h1, xs)
        with pytest.raises(DimensionError, match="one point's model system, not a stack's"):
            resolvent_condition(h1, ev)
        # each row is one point, and its condition number that of the point's evaluation
        for k, x in enumerate(xs):
            assert resolvent_condition(h1, ev.row(k)) == resolvent_condition(h1, evaluate(h1, x))


class TestResolventConditionBound:
    """For an isometric colligation, cond(I - S) <= (1 + ||Delta(x)||) / (1 - ||Delta(x)||).

    ||D|| <= 1 makes the step S = (D kron I)(I kron Delta(x)) a contraction by
    ||Delta(x)||, so the resolvent's singular values lie in [1 - ||Delta||, 1 + ||Delta||].
    """

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(("polydisk:2", "ball:2", "cartan:2")),
        dim_e=st.integers(1, 3),
        n=st.integers(1, 3),
        margin=st.sampled_from((0.01, 0.05, 0.3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_condition_within_the_norm_bound(self, name, dim_e, n, margin, seed):
        delta = get_delta(name)
        h = NcFunctionHandle(random_realization(dim_e, delta.J, seed), delta)
        x = random_interior_point(delta, n, np.random.default_rng(seed), margin=margin)
        ev = evaluate(h, x)
        bound = (1.0 + ev.delta_norm) / (1.0 - ev.delta_norm)
        assert 1.0 <= resolvent_condition(h, ev) <= bound


def _grid(rows):
    return DeltaMatrix(2, [[parse_poly(entry, 2) for entry in row] for row in rows])


def assert_equal_bits(got, want):
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


# a 3 x 1 column with a degree-two entry, and a 1 x 3 row: padded to J = 3 either way
COLUMN_GRID = _grid([["0.6*x0"], ["0.5*x1^2 - 0.2*x0"], ["0.4*x0*x1"]])
ROW_GRID = _grid([["0.6*x0", "0.5*x1^2 - 0.2*x0", "0.4*x0*x1"]])


class TestNonZeroColumns:
    """The model system is solved and conditioned on Delta's non-zero block columns.

    The oracle is the whole padded system, solved and factored as it stands
    (``padded_model_solution`` and ``padded_condition``).  Column grids
    (c < J) match it within 1e-13 relative; square and row grids (c = J) run
    the same computation and equal it bit for bit.
    """

    COLUMN_GRIDS = {
        "ball:2": get_delta("ball:2"), "ball:3": get_delta("ball:3"), "3x1": COLUMN_GRID,
    }
    FULL_GRIDS = {
        "polydisk:2": get_delta("polydisk:2"), "cartan:2": get_delta("cartan:2"),
        "example-h1": None, "1x3": ROW_GRID,
    }

    @staticmethod
    def assert_close(got, want):
        got, want = np.atleast_2d(got), np.atleast_2d(want)
        assert operator_norm(got - want) <= 1e-13 * operator_norm(want)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted({**COLUMN_GRIDS, **FULL_GRIDS})),
        dim_e=st.integers(1, 3),
        n=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(name="ball:3", dim_e=2, n=16, seed=1)
    def test_matches_the_padded_system(self, name, dim_e, n, seed):
        column = name in self.COLUMN_GRIDS
        delta = {**self.COLUMN_GRIDS, **self.FULL_GRIDS}[name]
        if delta is None:
            h = get_fixture(name).handle
        else:
            h = NcFunctionHandle(random_realization(dim_e, delta.J, seed), delta)
        rng = np.random.default_rng(seed)
        xs = [random_interior_point(h.delta, n, rng) for _ in range(3)]
        assert (len(h.delta.entries[0]) < h.delta.J) == column
        same = self.assert_close if column else assert_equal_bits
        for x in xs:
            ev = evaluate(h, x)
            u, phi = padded_model_solution(h, ev.delta, n)
            same(ev.u, u), same(ev.phi, phi)
            cond, want = resolvent_condition(h, ev), padded_condition(h, ev)
            same(np.array(cond), np.array(want))
        stack = stacked(h, xs)
        with pytest.MonkeyPatch.context() as patch:  # two solves: rows 0-1 and row 2
            patch.setattr(domain, "BLOCK_BYTES", solve_budget(h, n, 2))
            many = evaluate_stack(h, stack)
        u, phi = padded_model_solution(h, stack.delta, n)
        for k in range(len(xs)):
            same(many.u[k], u[k]), same(many.phi[k], phi[k])

    def test_solve_rows_count_the_active_columns(self):
        # at n = 4, dim_E 2 a row holds its point (d n^2), its padded Delta and, on a column
        # grid, the padded copy phi is formed at ((Jn)^2 each), the active columns of its
        # model system and step (2 m^2 (Jn)(cn)), and its right-hand side and u (2 m (Jn) n);
        # square and row grids count (1 + 2 m^2)(Jn)^2 + 4 (Jn) n
        for delta, entries in (
            (get_delta("ball:3"), 3 * 16 + 2 * 12**2 + 2 * 4 * 12 * 4 + 4 * 12 * 4),  # 14592 bytes
            (COLUMN_GRID, 2 * 16 + 2 * 12**2 + 2 * 4 * 12 * 4 + 4 * 12 * 4),
            (ROW_GRID, 2 * 16 + 9 * 12**2 + 4 * 12 * 4),
            (get_delta("polydisk:2"), 2 * 16 + 9 * 8**2 + 4 * 8 * 4),
        ):
            assert realization.solve_rows(delta, 2, 4) == domain.BLOCK_BYTES // (16 * entries)

    def test_resolvent_condition_refuses_an_evaluation_of_another_grid(self):
        ball2, ball3, polydisk2 = get_delta("ball:2"), get_delta("ball:3"), get_delta("polydisk:2")
        rng = np.random.default_rng(8)
        on_ball3 = evaluate(
            NcFunctionHandle(random_realization(1, 3, 1), ball3),
            random_interior_point(ball3, 2, rng),
        )
        with pytest.raises(DimensionError, match="6 x 6 delta, the handle's grid a 4 x 4"):
            resolvent_condition(NcFunctionHandle(random_realization(1, 2, 2), polydisk2), on_ball3)
        # polydisk:2's Delta is not zero in ball:2's padding column
        on_polydisk = evaluate(
            NcFunctionHandle(random_realization(1, 2, 3), polydisk2),
            random_interior_point(polydisk2, 2, rng),
        )
        with pytest.raises(DimensionError, match="not zero in the padding columns"):
            resolvent_condition(NcFunctionHandle(random_realization(1, 2, 4), ball2), on_polydisk)


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
