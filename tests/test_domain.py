from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncjulia import (
    DeltaMatrix,
    DimensionError,
    FreePolynomial,
    MatrixTuple,
    PreconditionError,
    ball_delta,
    cartan_delta,
    check_assumption_A,
    delta_from_json,
    delta_to_json,
    direct_sum,
    eval_delta,
    eval_delta_original,
    find_transverse_direction,
    generate_sequence,
    in_Delta,
    in_G_delta,
    in_Gamma,
    in_Sigma,
    nontangential_constant,
    on_distinguished_boundary,
    operator_norm,
    parse_poly,
    polydisk_delta,
    radial_sequence,
    random_interior_point,
    ray_sequence,
)
from ncjulia import domain
from ncjulia.domain import GDeltaExitWarning, _gaussian_draft, _into_domain, _sequence_in_domain

from conftest import random_poly, random_tuple, random_unitary_tuple, sequential_interior_sample


def blocked_delta():
    """diag(x0, 1): the constant unit entry blocks every inward direction."""
    one = FreePolynomial.constant(1, 1.0)
    x0 = FreePolynomial.variable(1, 0)
    zero = FreePolynomial.zero(1)
    return DeltaMatrix(1, [[x0, zero], [zero, one]])


class TestEvalDelta:
    def test_polydisk_scalars(self):
        d = polydisk_delta(2)
        x = MatrixTuple.from_scalars([0.5, 0.3])
        np.testing.assert_allclose(eval_delta(d, x), np.diag([0.5, 0.3]), atol=1e-15)

    def test_ball_padded_column(self):
        d = ball_delta(2)
        x = MatrixTuple.from_scalars([0.6, 0.8])
        np.testing.assert_allclose(eval_delta(d, x), [[0.6, 0.0], [0.8, 0.0]], atol=1e-15)
        np.testing.assert_allclose(eval_delta_original(d, x), [[0.6], [0.8]], atol=1e-15)

    def test_non_square_grid_is_the_given_grid_zero_padded(self, rng):
        for rows, cols in ((3, 1), (1, 2), (2, 3)):
            grid = [[random_poly(rng, 2, 3, 3) for _ in range(cols)] for _ in range(rows)]
            delta = DeltaMatrix(2, grid)
            j = max(rows, cols)
            assert delta.J == j
            for n in (1, 2):
                xs = [random_tuple(rng, 2, n) for _ in range(3)]
                padded = []
                for x in xs:
                    want = np.zeros((j * n, j * n), dtype=np.complex128)
                    want[: rows * n, : cols * n] = eval_delta_original(delta, x)
                    assert np.array_equal(eval_delta(delta, x), want)
                    padded.append(want)
                stacked = [np.stack(c) for c in zip(*(x.components for x in xs))]
                assert np.array_equal(domain._eval_delta_stack(delta, stacked), np.stack(padded))

    def test_padding_blocks_evaluate_no_polynomial(self, monkeypatch):
        calls = []
        eval_poly = domain.eval_poly
        monkeypatch.setattr(domain, "eval_poly", lambda p, x: calls.append(p) or eval_poly(p, x))
        big = eval_delta(ball_delta(3), MatrixTuple.from_scalars([0.1, 0.2, 0.3]))
        assert big.shape == (3, 3) and len(calls) == 3

    def test_zero_grid(self):
        d = DeltaMatrix(1, [[FreePolynomial.zero(1)]])
        x = MatrixTuple((np.ones((2, 2)),))
        np.testing.assert_allclose(eval_delta(d, x), np.zeros((2, 2)))

    def test_direct_sum_norm_identity(self, rng):
        for _ in range(30):
            d = int(rng.integers(1, 3))
            grid = [[random_poly(rng, d, 3, 3) for _ in range(2)] for _ in range(2)]
            delta = DeltaMatrix(d, grid)
            x = random_tuple(rng, d, int(rng.integers(1, 3)))
            y = random_tuple(rng, d, int(rng.integers(1, 3)))
            lhs = operator_norm(eval_delta(delta, direct_sum(x, y)))
            rhs = max(
                operator_norm(eval_delta(delta, x)), operator_norm(eval_delta(delta, y))
            )
            assert lhs == pytest.approx(rhs, abs=1e-12)


class TestMembership:
    def test_polydisk_inside(self):
        m = in_G_delta(polydisk_delta(2), MatrixTuple.from_scalars([0.5, 0.3]))
        assert m and m.margin == pytest.approx(0.5)

    def test_polydisk_boundary_not_inside(self):
        m = in_G_delta(polydisk_delta(2), MatrixTuple.from_scalars([1.0, 0.0]))
        assert not m

    def test_ball_outside(self):
        # column norm sqrt(0.64 + 0.49) = sqrt(1.13)
        m = in_G_delta(ball_delta(2), MatrixTuple.from_scalars([0.8, 0.7]))
        assert not m
        assert m.norm == pytest.approx(np.sqrt(1.13))


class TestDistinguishedBoundary:
    def test_polydisk_unitary_pair(self):
        assert on_distinguished_boundary(polydisk_delta(2), MatrixTuple.from_scalars([1, 1]))

    def test_ball_unit_column(self):
        assert on_distinguished_boundary(ball_delta(2), MatrixTuple.from_scalars([0.6, 0.8]))

    def test_polydisk_non_unitary_block(self):
        t = MatrixTuple((np.eye(2), np.diag([1.0, 0.0])))
        assert not on_distinguished_boundary(polydisk_delta(2), t)

    def test_isometry_norm_identity(self, rng):
        # with a square unitary boundary value, ||d(T) - d(Z)|| = ||I - d(T)*d(Z)||
        for delta, t in [
            (polydisk_delta(2), random_unitary_tuple(rng, 2, 2)),
            (cartan_delta(2), MatrixTuple.from_scalars([1.0, 0.0, 1.0])),
        ]:
            for _ in range(20):
                z = random_interior_point(delta, t.n, rng)
                dt, dz = eval_delta(delta, t), eval_delta(delta, z)
                lhs = operator_norm(dt - dz)
                rhs = operator_norm(np.eye(dt.shape[0]) - dt.conj().T @ dz)
                assert lhs == pytest.approx(rhs, abs=1e-10)


class TestNontangentialConstant:
    def test_radial_bounded_by_one(self):
        d = polydisk_delta(1)
        t = MatrixTuple.from_scalars([1.0])
        for r in (0.5, 0.9, 0.99):
            c = nontangential_constant(d, MatrixTuple.from_scalars([r]), t)
            assert c == pytest.approx(1.0 / (1.0 + r))

    def test_boundary_point_gives_infinity(self):
        d = polydisk_delta(1)
        t = MatrixTuple.from_scalars([1.0])
        assert nontangential_constant(d, t, t) == float("inf")

    def test_ray_constant_approaches_half(self):
        # along Z = (1-t) T: c(t) = t / (2t - t^2) = 1 / (2 - t)
        d = polydisk_delta(2)
        t = MatrixTuple.from_scalars([1.0, 1.0])
        for step in (0.5, 0.25, 0.125, 1e-3):
            z = (1.0 - step) * t
            assert nontangential_constant(d, z, t) == pytest.approx(1.0 / (2.0 - step))


class TestCones:
    def test_neg_t_is_transverse(self):
        d = polydisk_delta(2)
        t = MatrixTuple.from_scalars([1.0, 1.0])
        h = MatrixTuple.from_scalars([-1.0, -1.0])
        assert in_Delta(d, t, h)
        assert in_Gamma(d, t, h)
        assert in_Sigma(d, t, h)

    def test_tangential_component_not_inward(self):
        # gram derivative diag(i, -1) has Hermitian part diag(0, -1): top eig 0
        d = polydisk_delta(2)
        t = MatrixTuple.from_scalars([1.0, 1.0])
        h = MatrixTuple.from_scalars([1j, -1.0])
        assert not in_Gamma(d, t, h)

    def test_blocked_delta_has_empty_transverse_cone(self, rng):
        d = blocked_delta()
        t = MatrixTuple.from_scalars([1.0])
        for _ in range(20):
            h = random_tuple(rng, 1, 1, max_norm=1.0)
            assert not in_Delta(d, t, h)

    def test_norm_constraint_enforced(self):
        d = polydisk_delta(2)
        t = MatrixTuple.from_scalars([1.0, 1.0])
        with pytest.raises(PreconditionError):
            in_Gamma(d, t, MatrixTuple.from_scalars([-2.0, -2.0]))

    def test_delta_subset_gamma_and_sigma(self, rng):
        d = polydisk_delta(2)
        for _ in range(30):
            t = random_unitary_tuple(rng, 2, 2)
            h = random_tuple(rng, 2, 2, max_norm=1.0)
            if in_Delta(d, t, h):
                assert in_Gamma(d, t, h) and in_Sigma(d, t, h)


class TestAssumptionA:
    def test_polydisk(self, rng):
        d = polydisk_delta(2)
        for n in (1, 2):
            t = random_unitary_tuple(rng, 2, n)
            rep = check_assumption_A(d, t, n_starts=5)
            assert rep.a1 and rep.a2 and rep.a
            assert rep.witness.beta == pytest.approx(1.0, abs=1e-10)
            assert rep.sigma_span_dim == 2 * n * n

    def test_cartan(self):
        d = cartan_delta(2)
        t = MatrixTuple.from_scalars([1.0, 0.0, 1.0])
        rep = check_assumption_A(d, t, n_starts=5)
        assert rep.a1 and rep.a2 and rep.a
        assert rep.sigma_span_dim == 3

    def test_cartan_antidiagonal_point(self):
        d = cartan_delta(2)
        t = MatrixTuple.from_scalars([0.0, 1.0, 0.0])
        rep = check_assumption_A(d, t, n_starts=5)
        assert rep.a1 and rep.a2

    def test_cartan_matrix_level(self):
        d = cartan_delta(2)
        eye, zero = np.eye(2), np.zeros((2, 2))
        for t in (MatrixTuple((eye, zero, eye)), MatrixTuple((zero, eye, zero))):
            assert on_distinguished_boundary(d, t)
            rep = check_assumption_A(d, t, n_starts=3)
            assert rep.a1 and rep.a2
            assert rep.sigma_span_dim == 12

    def test_cartan_random_symmetric_unitary(self, rng):
        # U U^T is symmetric unitary for any unitary U
        d = cartan_delta(3)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        s = u @ u.T
        coords = [s[a, b] for a in range(3) for b in range(a, 3)]
        t = MatrixTuple.from_scalars(coords)
        assert on_distinguished_boundary(d, t)
        rep = check_assumption_A(d, t, n_starts=3)
        assert rep.a and rep.sigma_span_dim == 6

    def test_blocked_delta_a1_fails(self):
        rep = check_assumption_A(blocked_delta(), MatrixTuple.from_scalars([1.0]), n_starts=5)
        assert not rep.a1
        assert not rep.witness.found
        assert not rep.a

    def test_witness_search_succeeds_where_heuristic_fails(self):
        # diag(x0, 3 x1 - 2 x1^2) at T=(1,1): the cone matrix is diag(h1, -h2),
        # so -T gives diag(-1, +1) (indefinite) while K=(-1, +1) is a witness
        # the descent must discover
        from ncjulia import parse_poly

        d2 = parse_poly("3*x1 - 2*x1^2", 2)
        zero = FreePolynomial.zero(2)
        delta = DeltaMatrix(
            2, [[FreePolynomial.variable(2, 0), zero], [zero, d2]]
        )
        t = MatrixTuple.from_scalars([1.0, 1.0])
        assert on_distinguished_boundary(delta, t)
        assert not in_Delta(delta, t, -1.0 * t)
        res = find_transverse_direction(delta, t, n_starts=10, seed=0)
        assert res.found
        assert res.beta == pytest.approx(1.0, abs=1e-4)
        assert in_Delta(delta, t, res.witness, beta=0.5)

    def test_sigma_constraint_matches_defect_map_oracle(self, rng, monkeypatch):
        def oracle(lmat, gram_dim):
            """The self-adjointness defect applied to each real unit coordinate."""
            dim = lmat.shape[1]

            def defect_map(real_vec):
                m = (lmat @ (real_vec[:dim] + 1j * real_vec[dim:])).reshape(gram_dim, gram_dim)
                flat = (m - m.conj().T).reshape(-1)
                return np.concatenate([flat.real, flat.imag])

            return np.column_stack([defect_map(col) for col in np.eye(2 * dim)])

        zero = FreePolynomial.zero(2)
        witness_grid = DeltaMatrix(
            2, [[FreePolynomial.variable(2, 0), zero], [zero, parse_poly("3*x1 - 2*x1^2", 2)]]
        )
        iso = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
        cases = (
            (polydisk_delta(2), random_unitary_tuple(rng, 2, 2)),
            (ball_delta(2), MatrixTuple((iso[:2], iso[2:]))),
            (witness_grid, MatrixTuple.from_scalars([1.0, 1.0])),
        )
        svd, seen = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a) or svd(a, **kw))
        for delta, t in cases:
            assert on_distinguished_boundary(delta, t)
            lmat = domain._gram_derivative_matrix(delta, t)
            gram_dim = len(delta.entries[0]) * t.n
            seen.clear()
            domain._sigma_nullspace(lmat, gram_dim)
            assert len(seen) == 1 and np.array_equal(seen[0], oracle(lmat, gram_dim))

    def test_requires_distinguished_boundary(self):
        with pytest.raises(PreconditionError):
            check_assumption_A(polydisk_delta(2), MatrixTuple.from_scalars([0.5, 0.5]))

    def test_ball_gram_derivative_unpadded(self):
        # for the column grid the cone matrix is n x n, so -T is transverse
        d = ball_delta(2)
        t = MatrixTuple.from_scalars([0.6, 0.8])
        assert in_Delta(d, t, -1.0 * t)
        res = find_transverse_direction(d, t, n_starts=1)
        assert res.found and res.beta == pytest.approx(1.0, abs=1e-10)


class TestSequences:
    def test_radial_all_inside(self):
        d = polydisk_delta(2)
        t = MatrixTuple.from_scalars([1.0, 1.0])
        pts = generate_sequence(radial_sequence(t, num_steps=10), d)
        assert len(pts.points) == 10 and pts.dropped == 0
        assert all(in_G_delta(d, z) for z in pts.points)

    def test_ray_matches_radial_for_neg_t(self):
        d = polydisk_delta(2)
        t = MatrixTuple.from_scalars([1.0, 1.0])
        pts_ray = generate_sequence(ray_sequence(t, -1.0 * t, num_steps=6), d)
        pts_rad = generate_sequence(radial_sequence(t, num_steps=6), d)
        for a, b in zip(pts_ray.points, pts_rad.points):
            np.testing.assert_allclose(a.components[0], b.components[0], atol=1e-15)

    def test_exiting_points_dropped_with_warning(self):
        d = polydisk_delta(2)
        t = MatrixTuple.from_scalars([1.0, 1.0])
        seq = ray_sequence(t, -1.0 * t, num_steps=4, first_step=4.0)
        with pytest.warns(GDeltaExitWarning):
            pts = generate_sequence(seq, d)
        # t=4 gives (-3,-3) outside; t=2 gives (-1,-1) on the boundary
        assert pts.dropped == 2
        assert pts.steps[0] == pytest.approx(1.0)

    def test_fully_tangential_ray_rejected(self):
        d = polydisk_delta(2)
        t = MatrixTuple.from_scalars([1.0, 1.0])
        seq = ray_sequence(t, MatrixTuple.from_scalars([1j, 1j]), num_steps=5)
        with pytest.warns(GDeltaExitWarning):
            with pytest.raises(PreconditionError):
                generate_sequence(seq, d)

    def test_radial_requires_homogeneous(self):
        x0 = FreePolynomial.variable(1, 0)
        d = DeltaMatrix(1, [[x0 * x0]])
        t = MatrixTuple.from_scalars([1.0])
        with pytest.raises(PreconditionError):
            generate_sequence(radial_sequence(t), d)

    def test_inward_rays_enter_and_stay_nontangential(self, rng):
        # directions in the inward cone enter the domain for small t with
        # bounded aperture along the ray
        d = polydisk_delta(2)
        t = random_unitary_tuple(rng, 2, 2)
        from conftest import random_admissible_direction

        for _ in range(10):
            h = MatrixTuple(
                tuple(
                    u @ c
                    for u, c in zip(
                        t.components, random_admissible_direction(rng, 2).components
                    )
                )
            )
            assert in_Gamma(d, t, h, beta=1e-6)
            seq = ray_sequence(t, h, num_steps=8, first_step=0.05)
            pts = generate_sequence(seq, d)
            apertures = [nontangential_constant(d, z, t) for z in pts.points]
            assert max(apertures) < 1e3


    def test_stacked_membership_matches_in_G_delta(self, rng):
        d = cartan_delta(2)
        t = MatrixTuple((np.eye(2), np.zeros((2, 2)), np.eye(2)))
        inward = -1.0 * t + 0.3 * random_tuple(rng, 3, 2)
        seq = ray_sequence(t, inward, num_steps=8, first_step=4.0)
        with pytest.warns(GDeltaExitWarning):
            pts, big_delta, norms = _sequence_in_domain(seq, d)
        assert 0 < pts.dropped < 8
        assert len(pts.points) == len(pts.steps) == len(big_delta) == len(norms)
        members = [in_G_delta(d, z) for z in pts.points]
        assert all(members) and [m.norm for m in members] == list(norms)
        assert all(np.array_equal(eval_delta(d, z), b) for z, b in zip(pts.points, big_delta))
        with pytest.warns(GDeltaExitWarning):
            assert pts.steps == generate_sequence(seq, d).steps

    def test_non_finite_sequence_point_rejected(self):
        # 1e308 (x + x^2) overflows near x = 1
        delta = DeltaMatrix(1, [[FreePolynomial(1, (((0,), 1e308), ((0, 0), 1e308)))]])
        one = MatrixTuple.from_scalars([1.0])
        with np.errstate(over="ignore"), pytest.raises(PreconditionError, match="non-finite"):
            generate_sequence(ray_sequence(one, -1.0 * one, num_steps=6), delta)

    def test_point_of_other_d_rejected(self):
        t = MatrixTuple.from_scalars([1.0, 1.0])
        with pytest.raises(DimensionError):
            generate_sequence(radial_sequence(t), polydisk_delta(3))


def nonhomogeneous_delta():
    """Padded 1 x 2 grid with constant, degree-one and degree-two words."""
    return DeltaMatrix(
        2, [[parse_poly("0.5*x0*x1 + 0.2", 2), parse_poly("x1^2 - 0.3i*x0", 2)]]
    )


SAMPLING_DELTAS = {
    "polydisk:2": polydisk_delta(2),
    "ball:3": ball_delta(3),
    "cartan:2": cartan_delta(2),
    "grid": nonhomogeneous_delta(),
}


class TestInteriorSampling:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(SAMPLING_DELTAS)),
        sizes=st.lists(st.sampled_from((1, 2, 4)), min_size=1, max_size=8),
        margin=st.sampled_from((0.05, 0.3)),
        block_bytes=st.sampled_from((1, 4096, domain._BLOCK_BYTES)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_scaling_matches_sequential(self, name, sizes, margin, block_bytes, seed):
        delta = SAMPLING_DELTAS[name]
        rng = np.random.default_rng(seed)
        drafts = [_gaussian_draft(delta.d, n, rng) for n in sizes]
        with mock.patch.object(domain, "_BLOCK_BYTES", block_bytes):
            got = _into_domain(delta, drafts, margin)
        oracle_rng = np.random.default_rng(seed)
        expected = [sequential_interior_sample(delta, n, oracle_rng, margin) for n in sizes]
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert len(got) == len(expected)
        for (x, big_delta, norm), (x0, delta0, norm0, _) in zip(got, expected):
            assert x.d == x0.d
            assert all(np.array_equal(a, b) for a, b in zip(x.components, x0.components))
            assert np.array_equal(big_delta, delta0)
            assert norm == norm0

    def test_random_interior_point_matches_sequential(self):
        for name, delta in SAMPLING_DELTAS.items():
            rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
            for n in (1, 3, 2):
                x = random_interior_point(delta, n, rng, margin=0.3)
                x0 = sequential_interior_sample(delta, n, oracle_rng, margin=0.3)[0]
                assert all(np.array_equal(a, b) for a, b in zip(x.components, x0.components))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_first_failing_draft_raises_its_error(self, monkeypatch):
        # p(x) = 1e308 (x + x^2) is 0.01 at x = 1e-310, 1e8 at x = 1e-300 (one
        # halving does not bring it under 1) and overflows at x = 1
        p = FreePolynomial(1, (((0,), 1e308), ((0, 0), 1e308)))
        delta = DeltaMatrix(1, [[p]])
        norms = domain._operator_norms

        def finite_only(stack):
            assert np.isfinite(stack).all(), "a non-finite Delta reached the SVD"
            return norms(stack)

        monkeypatch.setattr(domain, "_operator_norms", finite_only)

        def draft(value, n=1):
            return (value * np.eye(n, dtype=np.complex128),)

        ok, too_big, overflow = draft(1e-310), draft(1e-300), draft(1.0)
        assert _into_domain(delta, [ok, ok], max_halvings=1)[1][2] == pytest.approx(0.01)
        cases = (
            ([ok, overflow, too_big], "non-finite"),
            ([ok, too_big, overflow], "could not scale"),
            # sizes are scaled in separate groups; draft order still decides
            ([ok, draft(1e-300, 2), overflow], "could not scale"),
            ([ok, draft(1.0, 2), too_big], "non-finite"),
        )
        for drafts, message in cases:
            with np.errstate(over="ignore"), pytest.raises(PreconditionError, match=message):
                _into_domain(delta, drafts, max_halvings=1)

    def test_blocks_hold_at_most_the_byte_budget(self, monkeypatch):
        delta = cartan_delta(2)
        # 8 MiB of stacked Delta: 32 drafts at n = 64 (a 128 x 128 Delta), 8192 at n = 4
        assert domain._block_rows(delta, 64) == 32
        assert domain._block_rows(delta, 4) == 8192
        sizes = []
        scale = domain._scale_block

        def recorded(delta, drafts, *args):
            sizes.append(len(drafts))
            return scale(delta, drafts, *args)

        monkeypatch.setattr(domain, "_scale_block", recorded)
        monkeypatch.setattr(domain, "_BLOCK_BYTES", 7 * 16 * 4**2)  # 7 drafts at n = 2
        rng = np.random.default_rng(3)
        _into_domain(delta, [_gaussian_draft(3, 2, rng) for _ in range(20)])
        assert sizes == [7, 7, 6]


class TestDeltaJson:
    def test_round_trip(self, rng):
        for rows, cols in ((2, 2), (2, 1), (1, 3)):
            delta = DeltaMatrix(
                2, [[random_poly(rng, 2, 2, 3) for _ in range(cols)] for _ in range(rows)]
            )
            again = delta_from_json(delta_to_json(delta))
            assert again.entries == delta.entries
            assert np.shape(again.entries) == np.shape(delta.entries)

    def test_text_entries(self):
        delta = delta_from_json({"d": 2, "entries": [["x0", "0"], ["0", "x1"]]})
        assert delta.entries == polydisk_delta(2).entries
