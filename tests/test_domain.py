import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncjulia import (
    DeltaMatrix,
    DimensionError,
    FreePolynomial,
    MatrixTuple,
    NcFunctionHandle,
    ParseError,
    PreconditionError,
    ball_delta,
    boundary_point,
    cartan_delta,
    check_assumption_A,
    delta_derivative,
    delta_from_json,
    delta_to_json,
    eval_delta,
    eval_poly,
    find_transverse_direction,
    gaussian_drafts,
    generate_sequence,
    get_delta,
    haar_unitary,
    in_Delta,
    in_G_delta,
    inward_margin,
    julia_sweep,
    operator_norm,
    parse_poly,
    polydisk_delta,
    random_interior_point,
    random_realization,
    scale_into_domain,
    sigma_span_dimension,
)
from ncjulia import boundary, domain
from ncjulia.domain import (
    INWARD_BETA, SELF_ADJOINT_TOL, GDeltaExitWarning, SEQUENCE_FIRST_STEP, cone_matrix,
)

from conftest import (
    find_transverse_direction_oracle, hermitian_part_max_eig, in_delta_oracle, is_self_adjoint,
    random_poly, random_tuple, random_unitary_tuple, sequential_interior_sample,
    sigma_span_dimension_oracle, stack_points, witness_grid,
)
from oracles import direct_sum


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
        np.testing.assert_allclose(boundary_point(d, x).given, [[0.6], [0.8]], atol=1e-15)

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
                    for a in range(rows):
                        for b in range(cols):
                            want[a * n : (a + 1) * n, b * n : (b + 1) * n] = eval_poly(
                                grid[a][b], x
                            )
                    assert np.array_equal(eval_delta(delta, x), want)
                    given = boundary_point(delta, x).given
                    assert np.array_equal(given, want[: rows * n, : cols * n])
                    padded.append(want)
                stacked = [np.stack(c) for c in zip(*(x.components for x in xs))]
                assert np.array_equal(domain._eval_delta_stack(delta, stacked), np.stack(padded))

    def test_padding_blocks_evaluate_no_polynomial(self, monkeypatch):
        calls = []
        words = domain.eval_words
        monkeypatch.setattr(domain, "eval_words", lambda p, c: calls.append(p) or words(p, c))
        big = eval_delta(ball_delta(3), MatrixTuple.from_scalars([0.1, 0.2, 0.3]))
        assert big.shape == (3, 3) and len(calls) == 3

    def test_degree_one_derivative_is_the_grid_at_the_direction(self, rng):
        # exact: the corner of each block at the lift [[T, H], [0, T]] is the grid at H
        for delta in (polydisk_delta(2), ball_delta(3), cartan_delta(2)):
            for n in (1, 2, 3, 4):
                t, h = random_tuple(rng, delta.d, n), random_tuple(rng, delta.d, n)
                assert np.array_equal(delta_derivative(delta, t, h), eval_delta(delta, h))

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
        assert boundary_point(polydisk_delta(2), MatrixTuple.from_scalars([1, 1])).distinguished

    def test_ball_unit_column(self):
        assert boundary_point(ball_delta(2), MatrixTuple.from_scalars([0.6, 0.8])).distinguished

    def test_polydisk_non_unitary_block(self):
        t = MatrixTuple((np.eye(2), np.diag([1.0, 0.0])))
        assert not boundary_point(polydisk_delta(2), t).distinguished

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


class TestLastBoundaryPointKept:
    """``boundary_point`` keeps its last point in one slot, for an equal grid and the same tuple."""

    def test_same_objects_share_one_point(self):
        delta, t = polydisk_delta(2), MatrixTuple.from_scalars([1.0, 1.0])
        bp = boundary_point(delta, t)
        assert boundary_point(delta, t) is bp
        assert boundary_point(polydisk_delta(2), t) is bp  # a grid is keyed by value
        other = boundary_point(delta, MatrixTuple(t.components))
        assert other is not bp and other.delta.tobytes() == bp.delta.tobytes()
        assert boundary_point(delta, t) is not bp  # only the last point is kept

    def test_delta_is_read_only(self):
        bp = boundary_point(polydisk_delta(2), MatrixTuple.from_scalars([1.0, 1.0]))
        with pytest.raises(ValueError, match="read-only"):
            bp.delta[0, 0] = 0.0


class TestGridHash:
    """A grid hashes its value once, on construction, and keeps it; equality stays by value.

    An equal grid object still hits ``boundary_point``'s slot:
    ``TestLastBoundaryPointKept.test_same_objects_share_one_point``.
    """

    def test_hashing_a_grid_hashes_no_polynomial(self, monkeypatch):
        hashed, value_hash = [], FreePolynomial.__hash__
        monkeypatch.setattr(FreePolynomial, "__hash__", lambda p: hashed.append(p) or value_hash(p))
        grid = cartan_delta(3)
        assert len(hashed) == sum(map(len, grid.entries))  # each entry once, when built
        hashed.clear()
        assert hash(grid) == hash(grid) and not hashed

    @pytest.mark.parametrize("name", ["polydisk:2", "ball:3", "cartan:2"])
    def test_equal_grids_hash_equal(self, name):
        grid, equal = get_delta(name), delta_from_json(delta_to_json(get_delta(name)))
        assert equal is not grid and equal == grid and hash(equal) == hash(grid)
        assert hash(grid) == hash((grid.d, grid.entries))  # the value hash, as before it was kept


def in_gamma(bp, h) -> bool:
    """h lies in the inward cone: the margin of its cone matrix is at least INWARD_BETA."""
    return inward_margin(cone_matrix(bp, h)) >= INWARD_BETA


def in_sigma(bp, h) -> bool:
    """h lies in the self-adjointness cone: its cone matrix M has ||M - M*|| <= SELF_ADJOINT_TOL."""
    m = cone_matrix(bp, h)
    return operator_norm(m - m.conj().T) <= SELF_ADJOINT_TOL


class TestCones:
    def test_neg_t_is_transverse(self):
        bp = boundary_point(polydisk_delta(2), MatrixTuple.from_scalars([1.0, 1.0]))
        h = MatrixTuple.from_scalars([-1.0, -1.0])
        assert in_Delta(bp, h)
        assert in_gamma(bp, h)
        assert in_sigma(bp, h)

    def test_tangential_component_not_inward(self):
        # gram derivative diag(i, -1) has Hermitian part diag(0, -1): top eig 0
        bp = boundary_point(polydisk_delta(2), MatrixTuple.from_scalars([1.0, 1.0]))
        h = MatrixTuple.from_scalars([1j, -1.0])
        assert inward_margin(cone_matrix(bp, h)) == 0.0
        assert not in_gamma(bp, h)

    def test_blocked_delta_has_empty_transverse_cone(self, rng):
        bp = boundary_point(blocked_delta(), MatrixTuple.from_scalars([1.0]))
        for _ in range(20):
            h = random_tuple(rng, 1, 1, max_norm=1.0)
            assert not in_Delta(bp, h)

    def test_norm_constraint_enforced(self):
        bp = boundary_point(polydisk_delta(2), MatrixTuple.from_scalars([1.0, 1.0]))
        with pytest.raises(PreconditionError):
            cone_matrix(bp, MatrixTuple.from_scalars([-2.0, -2.0]))
        with pytest.raises(PreconditionError):
            in_Delta(bp, MatrixTuple.from_scalars([-2.0, -2.0]))

    def test_delta_subset_gamma_and_sigma(self, rng):
        d = polydisk_delta(2)
        for _ in range(30):
            bp = boundary_point(d, random_unitary_tuple(rng, 2, 2))
            h = random_tuple(rng, 2, 2, max_norm=1.0)
            if in_Delta(bp, h):
                assert in_gamma(bp, h) and in_sigma(bp, h)


class TestAssumptionA:
    def test_polydisk(self, rng):
        d = polydisk_delta(2)
        for n in (1, 2):
            rep = check_assumption_A(boundary_point(d, random_unitary_tuple(rng, 2, n)))
            assert rep.a1 and rep.a2 and rep.a
            assert rep.witness.beta == pytest.approx(1.0, abs=1e-10)
            assert rep.sigma_span_dim == 2 * n * n

    def test_cartan(self):
        t = MatrixTuple.from_scalars([1.0, 0.0, 1.0])
        rep = check_assumption_A(boundary_point(cartan_delta(2), t))
        assert rep.a1 and rep.a2 and rep.a
        assert rep.sigma_span_dim == 3

    def test_cartan_antidiagonal_point(self):
        t = MatrixTuple.from_scalars([0.0, 1.0, 0.0])
        rep = check_assumption_A(boundary_point(cartan_delta(2), t))
        assert rep.a1 and rep.a2

    def test_cartan_matrix_level(self):
        d = cartan_delta(2)
        eye, zero = np.eye(2), np.zeros((2, 2))
        for t in (MatrixTuple((eye, zero, eye)), MatrixTuple((zero, eye, zero))):
            bp = boundary_point(d, t)
            assert bp.distinguished
            rep = check_assumption_A(bp)
            assert rep.a1 and rep.a2
            assert rep.sigma_span_dim == 12

    def test_cartan_random_symmetric_unitary(self, rng):
        # U U^T is symmetric unitary for any unitary U
        d = cartan_delta(3)
        u = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
        s = u @ u.T
        coords = [s[a, b] for a in range(3) for b in range(a, 3)]
        t = MatrixTuple.from_scalars(coords)
        bp = boundary_point(d, t)
        assert bp.distinguished
        rep = check_assumption_A(bp)
        assert rep.a and rep.sigma_span_dim == 6

    def test_blocked_delta_a1_fails(self):
        bp = boundary_point(blocked_delta(), MatrixTuple.from_scalars([1.0]))
        rep = check_assumption_A(bp)
        assert not rep.a1
        assert not rep.witness.found and rep.witness.decided
        assert not rep.a

    def test_blocked_delta_builds_the_sigma_basis_once(self, monkeypatch):
        # -T fails on diag(x0, 1), so the search and the span dimension both read the basis
        calls, nullspace = [], domain._sigma_nullspace
        monkeypatch.setattr(
            domain, "_sigma_nullspace", lambda *args: calls.append(args) or nullspace(*args)
        )
        bp = boundary_point(blocked_delta(), MatrixTuple.from_scalars([1.0]))
        rep = check_assumption_A(bp)
        assert not rep.witness.found and rep.sigma_span_dim == 1
        assert len(calls) == 1 and calls[0][0] is bp.gram_map

    def test_gram_map_evaluates_the_grid_once(self, monkeypatch):
        # the d n^2 = 18 basis lifts of polydisk:2 at T = (I_3, I_3), as one stack
        t = MatrixTuple((np.eye(3), np.eye(3)))
        bp = boundary_point(polydisk_delta(2), t)
        calls, stack = [], domain._eval_delta_stack
        monkeypatch.setattr(
            domain, "_eval_delta_stack", lambda *args: calls.append(args) or stack(*args)
        )
        lmat = bp.gram_map
        assert len(calls) == 1 and np.shape(calls[0][1]) == (2, 18, 6, 6)
        # column k is the Gram derivative along basis tuple k
        for k, e in enumerate(np.eye(18)):
            column = domain.cone_matrix(bp, MatrixTuple(tuple(e.reshape(2, 3, 3))))
            assert np.array_equal(lmat[:, k], column.reshape(-1))
        # a byte budget of 5 lifts (2 x 6 x 6) and their padded grid (12 x 12): stacks of
        # 5, 5, 5 and 3 lifts
        monkeypatch.setattr(domain, "BLOCK_BYTES", 5 * (16 * 12**2 + 16 * 2 * 6**2))
        boundary_point.cache_clear()  # the kept point at an equal grid holds its gram map
        bp = boundary_point(polydisk_delta(2), t)
        calls.clear()
        assert np.array_equal(bp.gram_map, lmat)
        assert [np.shape(c[1])[1] for c in calls] == [5, 5, 5, 3]

    @pytest.mark.parametrize("name", ["polydisk:2", "ball:3", "cartan:2"])
    def test_gram_map_columns_are_cone_matrices(self, name):
        # column k is cone_matrix at basis tuple k bit for bit, at Haar points of n = 1, 2, 3
        grid, rng = get_delta(name), np.random.default_rng(4)
        for n in (1, 2, 3):
            if name == "ball:3":
                u = haar_unitary(3 * n, rng)
                t = MatrixTuple((u[:n, :n], u[n : 2 * n, :n], u[2 * n :, :n]))
            else:
                t = haar_point(name, n, rng)
            bp = boundary_point(grid, t)
            assert bp.distinguished
            for k, e in enumerate(np.eye(grid.d * n * n)):
                column = cone_matrix(bp, MatrixTuple(tuple(e.reshape(grid.d, n, n))))
                assert np.array_equal(bp.gram_map[:, k], column.reshape(-1))

    def test_witness_search_succeeds_where_heuristic_fails(self):
        # diag(x0, 3 x1 - 2 x1^2) at T=(1,1): the cone matrix is diag(h1, -h2),
        # so -T gives diag(-1, +1) (indefinite) while K=(-1, +1) is a witness
        # the search must discover
        delta = witness_grid()
        t = MatrixTuple.from_scalars([1.0, 1.0])
        bp = boundary_point(delta, t)
        assert bp.distinguished
        assert not in_Delta(bp, -1.0 * t)
        res = find_transverse_direction(bp)
        assert res.found
        assert res.beta == pytest.approx(1.0, abs=1e-4)
        m = cone_matrix(bp, res.witness)
        assert operator_norm(m - m.conj().T) <= SELF_ADJOINT_TOL and inward_margin(m) >= 0.5

    def test_sigma_constraint_matches_defect_map_oracle(self, rng, monkeypatch):
        def oracle(lmat, gram_dim):
            """The self-adjointness defect applied to each real unit coordinate."""
            dim = lmat.shape[1]

            def defect_map(real_vec):
                m = (lmat @ (real_vec[:dim] + 1j * real_vec[dim:])).reshape(gram_dim, gram_dim)
                flat = (m - m.conj().T).reshape(-1)
                return np.concatenate([flat.real, flat.imag])

            return np.column_stack([defect_map(col) for col in np.eye(2 * dim)])

        iso = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))[0]
        cases = (
            (polydisk_delta(2), random_unitary_tuple(rng, 2, 2)),
            (ball_delta(2), MatrixTuple((iso[:2], iso[2:]))),
            (witness_grid(), MatrixTuple.from_scalars([1.0, 1.0])),
        )
        svd, seen = np.linalg.svd, []
        monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: seen.append(a) or svd(a, **kw))
        for delta, t in cases:
            bp = boundary_point(delta, t)
            assert bp.distinguished
            lmat = bp.gram_map
            gram_dim = len(delta.entries[0]) * t.n
            seen.clear()
            domain._sigma_nullspace(lmat, gram_dim)
            assert len(seen) == 1 and np.array_equal(seen[0], oracle(lmat, gram_dim))

    def test_requires_distinguished_boundary(self):
        with pytest.raises(PreconditionError):
            check_assumption_A(
                boundary_point(polydisk_delta(2), MatrixTuple.from_scalars([0.5, 0.5]))
            )

    def test_ball_gram_derivative_unpadded(self):
        # for the column grid the cone matrix is n x n, so -T is transverse
        t = MatrixTuple.from_scalars([0.6, 0.8])
        bp = boundary_point(ball_delta(2), t)
        assert in_Delta(bp, -1.0 * t)
        res = find_transverse_direction(bp)
        assert res.found and res.beta == pytest.approx(1.0, abs=1e-10)


def haar_point(name, n, rng):
    """A distinguished boundary point of polydisk:2, ball:2 or cartan:2 from Haar unitaries."""
    if name == "polydisk:2":
        return MatrixTuple((haar_unitary(n, rng), haar_unitary(n, rng)))
    if name == "ball:2":
        u = haar_unitary(2 * n, rng)
        return MatrixTuple((u[:n, :n], u[n:, :n]))
    theta, v = rng.uniform(0.2, 1.3), haar_unitary(n, rng)
    c, s = np.cos(theta), np.sin(theta)
    return MatrixTuple((c * v, 1j * s * v, c * v))  # [[c, is], [is, c]] kron V is unitary


class TestConeOracle:
    """The inward cones equal the pre-change formulas of tests/conftest.py bit for bit."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        st.sampled_from(["polydisk:2", "ball:2", "cartan:2", "witness"]),
        st.integers(1, 2),
        st.sampled_from([0.0, 0.5, 0.9, 1.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_cones_match_the_pre_change_formulas(self, name, n, inward, seed):
        rng = np.random.default_rng(seed)
        if name == "witness":
            delta, t = witness_grid(), MatrixTuple.from_scalars([1.0, 1.0])
        else:
            delta, t = get_delta(name), haar_point(name, n, rng)
        bp = boundary_point(delta, t)
        assert bp.distinguished
        # -inward T plus (1 - inward) times a contraction: a direction in the unit ball
        h = -inward * t + (1.0 - inward) * random_tuple(rng, t.d, t.n, max_norm=1.0)
        m = cone_matrix(bp, h)
        assert inward_margin(m) == -hermitian_part_max_eig(m)
        # the asymmetry ||M - M*|| that in_Delta and the witness score read
        asymmetry = operator_norm(m - m.conj().T)
        assert (asymmetry <= SELF_ADJOINT_TOL) == is_self_adjoint(m, SELF_ADJOINT_TOL)
        assert in_Delta(bp, h) == in_delta_oracle(bp, h)
        starts, search_seed = 1 + seed % 3, seed % 5
        found = find_transverse_direction(bp)
        expected = find_transverse_direction_oracle(bp, n_starts=starts, seed=search_seed)
        if not in_Delta(bp, -1.0 * t):
            # -T fails: the search decides where the descent only searched
            assert found.found or not expected.found
        else:
            assert (found.found, found.beta) == (expected.found, expected.beta)
            assert all(map(np.array_equal, found.witness.components, expected.witness.components))
        assert sigma_span_dimension(bp) == sigma_span_dimension_oracle(bp)


def no_witness_grid():
    """diag(x0, 2 x0 - x0^2): at T = I the cone matrix is diag(h0, 0), so no witness exists."""
    zero = FreePolynomial.zero(1)
    return DeltaMatrix(
        1, [[FreePolynomial.variable(1, 0), zero], [zero, parse_poly("2*x0 - x0^2", 1)]]
    )


def sigma_cone_matrices(bp) -> list:
    """The cone matrix M_k of each direction of ``bp.sigma_basis``."""
    d, n = bp.t.d, bp.t.n
    dim = d * n * n
    return [
        cone_matrix(bp, MatrixTuple(tuple((col[:dim] + 1j * col[dim:]).reshape(d, n, n))))
        for col in bp.sigma_basis.T
    ]


def zig_zag_grid():
    """diag(x0, x1, p), p = 1.3 x0 + 2 x1 - 1.15 x0^2 - 1.15 x1^2: no witness at (I, I)."""
    x0, x1, zero = (FreePolynomial.variable(2, 0), FreePolynomial.variable(2, 1),
                    FreePolynomial.zero(2))
    p = parse_poly("1.3*x0 + 2*x1 - 1.15*x0^2 - 1.15*x1^2", 2)
    return DeltaMatrix(2, [[x0, zero, zero], [zero, x1, zero], [zero, zero, p]])


def x1_x0_grid():
    """diag(x0, x1 x0): -T is a witness at every unitary T."""
    zero = FreePolynomial.zero(2)
    return DeltaMatrix(2, [[FreePolynomial.variable(2, 0), zero], [zero, parse_poly("x1*x0", 2)]])


def random_degree_two(rng, d=2):
    """A random real combination of the words of degree 1 and 2, equal to 1 at (1, ..., 1)."""
    words = [f"x{a}" for a in range(d)] + [f"x{a}*x{b}" for a in range(d) for b in range(d)]
    coefficients = rng.standard_normal(len(words))
    coefficients[0] = 1.0 - coefficients[1:].sum()
    return parse_poly(" + ".join(f"({c!r})*{w}" for c, w in zip(coefficients.tolist(), words)), d)


class TestWitnessSearch:
    """After -T, the witness search decides: a witness, or a certificate that none exists."""

    # Ratchet: the np.linalg.eigh calls of one search on diag(x0, 2 x0 - x0^2) at T = I_n,
    # pinned exactly.  A change that takes fewer lowers the pin; none raises it.
    EIGH_CALLS = 1

    @pytest.mark.parametrize("name", ["polydisk:2", "ball:2", "cartan:2"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_degree_one_grids_form_one_cone_matrix(self, name, n, monkeypatch):
        # -T is the witness: the benchmark's points never build the Gram map
        bp = boundary_point(get_delta(name), haar_point(name, n, np.random.default_rng(n)))
        calls, cone = [], domain.cone_matrix
        monkeypatch.setattr(domain, "cone_matrix", lambda *args: calls.append(args) or cone(*args))
        res = find_transverse_direction(bp)
        assert res.found and res.beta == pytest.approx(1.0, abs=1e-10)
        assert len(calls) == 1 and "gram_map" not in vars(bp)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_eigh_calls_only_go_down(self, n, monkeypatch):
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(a) or eigh(*a, **kw))
        bp = boundary_point(no_witness_grid(), MatrixTuple((np.eye(n),)))
        res = find_transverse_direction(bp)
        assert res.decided and not res.found
        assert len(calls) == self.EIGH_CALLS

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_certificate_rules_out_a_witness(self, n):
        bp = boundary_point(no_witness_grid(), MatrixTuple((np.eye(n),)))
        res = find_transverse_direction(bp)
        assert not res.found and res.decided
        p = res.certificate
        assert np.linalg.eigvalsh(p)[0] >= -1e-12
        assert np.trace(p) == pytest.approx(1.0, abs=1e-12)
        # |s| < INWARD_BETA / sqrt(d n) bounds every coordinate tr(P M_k) of s
        bound = INWARD_BETA / np.sqrt(bp.t.d * n)
        assert max(abs(np.trace(p @ m)) for m in sigma_cone_matrices(bp)) <= bound
        rep = check_assumption_A(bp)
        assert not rep.a1 and rep.witness.decided

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_search_decides_where_frank_wolfe_zig_zags(self, n, monkeypatch):
        # plain Frank-Wolfe steps zig-zag between atoms here, 366 steps at n = 1, 731 at
        # n = 2, and ran out of WITNESS_ITERATIONS at n = 3, although a certificate exists
        bp = boundary_point(zig_zag_grid(), MatrixTuple((np.eye(n), np.eye(n))))
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(a) or eigh(*a, **kw))
        res = find_transverse_direction(bp)
        # with away steps it decides in 13, 79 and 188 steps
        assert res.decided and not res.found and len(calls) <= 300
        p = res.certificate
        assert np.linalg.eigvalsh(p)[0] >= -1e-12
        assert np.trace(p) == pytest.approx(1.0, abs=1e-12)
        bound = INWARD_BETA / np.sqrt(bp.t.d * n)
        assert max(abs(np.trace(p @ m)) for m in sigma_cone_matrices(bp)) <= bound

    @pytest.mark.parametrize("n", [1, 3])
    def test_search_stops_undecided_at_the_iteration_cap(self, n, monkeypatch):
        # the zig-zag grid's search decides in 13 steps at n = 1 and 188 at n = 3; capped at 5
        # steps it stops after 5 eigh calls with neither a witness nor a certificate
        monkeypatch.setattr(domain, "WITNESS_ITERATIONS", 5)
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(a) or eigh(*a, **kw))
        bp = boundary_point(zig_zag_grid(), MatrixTuple((np.eye(n), np.eye(n))))
        res = find_transverse_direction(bp)
        assert not res.decided and not res.found and res.certificate is None
        assert len(calls) == 5
        # an undecided search leaves the range test's verdict conditional
        verdict = boundary.is_bpoint_range_test(
            NcFunctionHandle(random_realization(1, 3, 4), bp.grid), bp
        )
        assert verdict.conditional and not verdict.inward_witness.decided

    @pytest.mark.parametrize("n", [1, 2])
    def test_constant_grid_has_every_direction_in_sigma(self, n, monkeypatch):
        # [[1]] at T = I: the Gram derivative is zero, so Sigma is everything, every cone
        # matrix M_k is zero and the search starts at s = 0, a certificate with no eigh call
        bp = boundary_point(DeltaMatrix(1, [[FreePolynomial.constant(1, 1.0)]]),
                            MatrixTuple((np.eye(n),)))
        basis, dim = bp.sigma_basis, n * n
        assert basis.shape == (2 * dim, 2 * dim)
        np.testing.assert_allclose(basis.T @ basis, np.eye(2 * dim), atol=1e-14)
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda *a, **kw: calls.append(a) or eigh(*a, **kw))
        res = find_transverse_direction(bp)
        assert res.decided and not res.found and calls == []
        assert np.array_equal(res.certificate, np.eye(n) / n)
        rep = check_assumption_A(bp)
        assert rep.sigma_span_dim == rep.full_dim == dim and rep.a2 and not rep.a1

    def test_no_self_adjoint_direction_is_a_certificate(self):
        # diag(x0, (2 - i) x0 + (i - 1) x0^2) at T = 1: the cone matrix is diag(h, i h), which is
        # self-adjoint only at h = 0, so Sigma = {0}
        x0, zero = FreePolynomial.variable(1, 0), FreePolynomial.zero(1)
        delta = DeltaMatrix(1, [[x0, zero], [zero, (2 - 1j) * x0 + (1j - 1) * (x0 * x0)]])
        bp = boundary_point(delta, MatrixTuple.from_scalars([1.0]))
        assert bp.sigma_basis.shape[1] == 0
        res = domain._nearest_point_search(bp)
        assert not res.found and res.decided
        assert np.array_equal(res.certificate, np.eye(2) / 2)
        assert sigma_span_dimension(bp) == 0  # Sigma = {0} spans nothing
        rep = check_assumption_A(bp)
        assert rep.sigma_span_dim == 0 and rep.full_dim == 1 and not rep.a2

    @pytest.mark.parametrize("seed", range(5))
    def test_stop_rule_returns_a_witness_of_margin(self, seed):
        # diag(x0, x1 x0) at a Haar T, n = 3: a stop at lambda_min(M(s)) > 0 once returned a
        # "witness" of margin 1.2e-16.  The |s|^2 / 2 rule guarantees margin dist(0, S) / 2,
        # and dist(0, S) >= 1 / sqrt(d n) since -T / sqrt(d n) has margin that much.
        rng = np.random.default_rng(seed)
        bp = boundary_point(x1_x0_grid(), MatrixTuple((haar_unitary(3, rng), haar_unitary(3, rng))))
        res = domain._nearest_point_search(bp)  # the iteration alone, -T not tried
        assert res.found and res.certificate is None
        m = cone_matrix(bp, res.witness)
        assert inward_margin(m) == res.beta >= max(INWARD_BETA, 1.0 / (2.0 * np.sqrt(6.0)))
        assert operator_norm(m - m.conj().T) <= SELF_ADJOINT_TOL

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        st.sampled_from(["polydisk:2", "ball:2", "cartan:2", "witness", "x1*x0", "degree two"]),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    def test_finds_a_witness_wherever_the_descent_does(self, name, n, seed):
        rng = np.random.default_rng(seed)
        zero = FreePolynomial.zero(2)
        if name == "witness":
            delta, t = witness_grid(), MatrixTuple((np.eye(n), np.eye(n)))
        elif name == "x1*x0":
            delta, t = x1_x0_grid(), MatrixTuple((haar_unitary(n, rng), haar_unitary(n, rng)))
        elif name == "degree two":
            delta = DeltaMatrix(2, [[random_degree_two(rng), zero], [zero, random_degree_two(rng)]])
            t = MatrixTuple((np.eye(n), np.eye(n)))
        else:
            delta, t = get_delta(name), haar_point(name, min(n, 2), rng)
        bp = boundary_point(delta, t)
        expected = find_transverse_direction_oracle(bp, n_starts=1 + seed % 3, seed=seed % 5)
        for res in (find_transverse_direction(bp), domain._nearest_point_search(bp)):
            assert res.found or not expected.found
            assert res.decided
            if res.found:
                m = cone_matrix(bp, res.witness)
                assert inward_margin(m) == res.beta >= INWARD_BETA
                assert operator_norm(m - m.conj().T) <= SELF_ADJOINT_TOL


class TestSequences:
    def test_radial_all_inside(self):
        d = polydisk_delta(2)
        t = MatrixTuple.from_scalars([1.0, 1.0])
        pts = generate_sequence(d, t, None, 10, SEQUENCE_FIRST_STEP)
        assert len(stack_points(pts.stack)) == 10 and pts.dropped == 0
        assert all(in_G_delta(d, z) for z in stack_points(pts.stack))

    def test_ray_matches_radial_for_neg_t(self):
        d = polydisk_delta(2)
        t = MatrixTuple.from_scalars([1.0, 1.0])
        pts_ray = generate_sequence(d, t, -1.0 * t, 6, SEQUENCE_FIRST_STEP)
        pts_rad = generate_sequence(d, t, None, 6, SEQUENCE_FIRST_STEP)
        for a, b in zip(stack_points(pts_ray.stack), stack_points(pts_rad.stack)):
            np.testing.assert_allclose(a.components[0], b.components[0], atol=1e-15)

    def test_exiting_points_dropped_with_warning(self):
        d = polydisk_delta(2)
        t = MatrixTuple.from_scalars([1.0, 1.0])
        with pytest.warns(GDeltaExitWarning):
            pts = generate_sequence(d, t, -1.0 * t, 4, 4.0)
        # t=4 gives (-3,-3) outside; t=2 gives (-1,-1) on the boundary
        assert pts.dropped == 2
        assert pts.steps[0] == pytest.approx(1.0)

    def test_fully_tangential_ray_rejected(self):
        d = polydisk_delta(2)
        t = MatrixTuple.from_scalars([1.0, 1.0])
        with pytest.warns(GDeltaExitWarning):
            with pytest.raises(PreconditionError):
                generate_sequence(d, t, MatrixTuple.from_scalars([1j, 1j]), 5, SEQUENCE_FIRST_STEP)

    def test_radial_requires_homogeneous(self):
        x0 = FreePolynomial.variable(1, 0)
        d = DeltaMatrix(1, [[x0 * x0]])
        t = MatrixTuple.from_scalars([1.0])
        with pytest.raises(PreconditionError):
            generate_sequence(d, t, None, 10, SEQUENCE_FIRST_STEP)

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
            bp = boundary_point(d, t)
            assert inward_margin(cone_matrix(bp, h)) >= 1e-6
            pts = generate_sequence(d, t, h, 8, 0.05)
            # the aperture ||Delta(Z) - Delta(T)|| / (1 - ||Delta(Z)||^2) of each point
            apertures = operator_norm(pts.stack.delta - bp.delta) / (1.0 - pts.stack.norms**2)
            assert max(apertures) < 1e3


    def test_stacked_membership_matches_in_G_delta(self, rng):
        d = cartan_delta(2)
        t = MatrixTuple((np.eye(2), np.zeros((2, 2)), np.eye(2)))
        inward = -1.0 * t + 0.3 * random_tuple(rng, 3, 2)
        with pytest.warns(GDeltaExitWarning):
            pts = generate_sequence(d, t, inward, 8, 4.0)
        points, big_delta, norms = stack_points(pts.stack), pts.stack.delta, pts.stack.norms
        assert 0 < pts.dropped < 8
        assert len(points) == len(pts.steps) == len(big_delta) == len(norms)
        members = [in_G_delta(d, z) for z in points]
        assert all(members) and [m.norm for m in members] == list(norms)
        assert all(np.array_equal(eval_delta(d, z), b) for z, b in zip(points, big_delta))

    def test_non_finite_sequence_point_rejected(self):
        # 1e308 (x + x^2) overflows near x = 1
        delta = DeltaMatrix(1, [[FreePolynomial(1, (((0,), 1e308), ((0, 0), 1e308)))]])
        one = MatrixTuple.from_scalars([1.0])
        with np.errstate(over="ignore"), pytest.raises(PreconditionError, match="non-finite"):
            generate_sequence(delta, one, -1.0 * one, 6, SEQUENCE_FIRST_STEP)
        # T + 1e308 H itself overflows: refused before Delta, with no numpy warning
        with pytest.raises(PreconditionError, match="sequence point contains non-finite"):
            generate_sequence(delta, one, -4.0 * one, 6, 1e308)

    def test_point_of_other_d_rejected(self):
        t = MatrixTuple.from_scalars([1.0, 1.0])
        with pytest.raises(DimensionError):
            generate_sequence(polydisk_delta(3), t, None, 10, SEQUENCE_FIRST_STEP)

    def test_underflowing_step_count_builds_no_sequence(self):
        d, t = polydisk_delta(2), MatrixTuple.from_scalars([1.0, 1.0])
        products = []

        class CountedStep(float):
            """A first step that counts the products formed from it: one per step built."""

            def __mul__(self, other):
                products.append(other)
                return float(self) * other

        # 0.5 * 2^-1073 is the smallest subnormal step; one more underflows to 0.  Radial
        # points of steps below the rounding of 1 - s lie on the boundary and are dropped
        with pytest.warns(GDeltaExitWarning):
            pts = generate_sequence(d, t, None, 1074, CountedStep(0.5))
        assert len(pts.steps) + pts.dropped == 1074 and len(products) == 1 + 1074
        for num_steps in (1075, 2000):
            products.clear()
            with pytest.raises(PreconditionError, match="steps must be positive"):
                generate_sequence(d, t, None, num_steps, CountedStep(0.5))
            assert len(products) == 1  # the last step alone
        with pytest.raises(PreconditionError, match="at least 2 steps"):
            generate_sequence(d, t, None, -2000, SEQUENCE_FIRST_STEP)

    def test_path_checks_run_in_order_before_any_step(self, monkeypatch):
        d, t = polydisk_delta(2), MatrixTuple.from_scalars([1.0, 1.0])
        x0 = FreePolynomial.variable(2, 0)
        square = DeltaMatrix(2, [[x0 * x0]])
        monkeypatch.setattr(domain, "_eval_delta_stack", lambda *a: pytest.fail("built a step"))
        positive = (PreconditionError, "steps must be positive")
        shape = (DimensionError, "direction must match")
        refusals = [
            # a non-positive last step is refused first, then a direction of another shape
            ((d, t, MatrixTuple.from_scalars([1.0]), 2000, 0.5), positive),
            ((d, t, None, 2, -0.5), positive),
            ((d, t, None, 2, float("nan")), positive),
            ((d, t, MatrixTuple.from_scalars([-1.0]), 1, 0.5), shape),
            ((d, t, MatrixTuple((np.eye(2),) * 2), 6, 0.5), shape),
            ((d, t, None, 1, 0.5), (PreconditionError, "need at least 2 steps")),
            ((square, t, None, 6, 0.5), (PreconditionError, "homogeneous of degree one")),
            ((polydisk_delta(3), t, None, 6, 0.5), (DimensionError, "delta has d=3 but point")),
        ]
        for args, (error, message) in refusals:
            with pytest.raises(error, match=message) as caught:
                generate_sequence(*args)
            assert type(caught.value) is error

    def test_fewer_than_two_interior_points_refused(self):
        d, t = polydisk_delta(2), MatrixTuple.from_scalars([1.0, 1.0])
        # along K = -T the steps 8 and 4 leave the domain, 2 reaches its boundary
        # and 1 and 0.5 give the interior points 0 and T / 2
        with pytest.warns(GDeltaExitWarning, match="3 of 4 sequence points"):
            with pytest.raises(PreconditionError, match="need at least two interior sequence"):
                generate_sequence(d, t, -1.0 * t, 4, 8.0)
        with pytest.warns(GDeltaExitWarning, match="3 of 5 sequence points"):
            pts = generate_sequence(d, t, -1.0 * t, 5, 8.0)
        assert pts.steps == [1.0, 0.5] and pts.dropped == 3

    def test_kind_follows_direction(self):
        d, t = polydisk_delta(2), MatrixTuple.from_scalars([1.0, 1.0])
        radial = generate_sequence(d, t, None, 4, SEQUENCE_FIRST_STEP)
        direction = -1.0 * t
        ray = generate_sequence(d, t, direction, 4, SEQUENCE_FIRST_STEP)
        assert radial.kind == "radial" and radial.base is t and radial.direction is None
        assert ray.kind == "ray" and ray.base is t and ray.direction is direction


def nonhomogeneous_delta():
    """Padded 1 x 2 grid with constant, degree-one and degree-two words."""
    return DeltaMatrix(
        2, [[parse_poly("0.5*x0*x1 + 0.2", 2), parse_poly("x1^2 - 0.3i*x0", 2)]]
    )


def scaled_per_draft(delta, drafts, margin):
    """(components, Delta, norm) of each (d, 1, n, n) draft, in draft order.

    The drafts of each matrix size are scaled as one ``scale_into_domain`` stack.
    """
    sizes = [draft.shape[-1] for draft in drafts]
    out = [None] * len(drafts)
    for size in set(sizes):
        index = [k for k, n in enumerate(sizes) if n == size]
        stack = scale_into_domain(delta, np.concatenate([drafts[k] for k in index], axis=1), margin)
        assert stack.components.shape == (delta.d, len(index), size, size)
        for j, k in enumerate(index):
            out[k] = (stack.components[:, j], stack.delta[j], stack.norms[j])
    return out


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
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_scaling_matches_sequential(self, name, sizes, margin, seed):
        delta = SAMPLING_DELTAS[name]
        rng = np.random.default_rng(seed)
        drafts = [gaussian_drafts(delta.d, n, rng, 1) for n in sizes]
        got = scaled_per_draft(delta, drafts, margin)
        oracle_rng = np.random.default_rng(seed)
        expected = [sequential_interior_sample(delta, n, oracle_rng, margin) for n in sizes]
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert len(got) == len(expected)
        for (x, big_delta, norm), (x0, delta0, norm0, _) in zip(got, expected):
            assert len(x) == x0.d
            assert all(np.array_equal(a, b) for a, b in zip(x, x0.components))
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
        # drafts drawn in blocks, as the Julia sweep draws them: one block of 8, or 3, 3 and 2
        for n, sizes in ((1, [8]), (2, [3, 3, 2])):
            for delta in SAMPLING_DELTAS.values():
                rng, oracle_rng = np.random.default_rng(6), np.random.default_rng(6)
                blocks = [
                    scale_into_domain(delta, gaussian_drafts(delta.d, n, rng, rows), 0.3)
                    for rows in sizes
                ]
                expected = [sequential_interior_sample(delta, n, oracle_rng, 0.3) for _ in range(8)]
                got = []
                for stack in blocks:
                    points, big_delta, norms = stack_points(stack), stack.delta, stack.norms
                    assert len(points) == len(big_delta) == len(norms)
                    got.append(len(points))
                    for k, (x0, delta0, norm0, _) in enumerate(expected[: len(points)]):
                        assert all(map(np.array_equal, points[k].components, x0.components))
                        assert np.array_equal(big_delta[k], delta0) and norms[k] == norm0
                    expected = expected[len(points):]
                assert got == sizes and expected == []
                assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_margin_outside_unit_interval_raises_on_the_call(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for margin in (0.0, 1.0, -0.5, 1.5, np.nan):
            with pytest.raises(PreconditionError, match=r"margin must lie in \(0, 1\)"):
                random_interior_point(polydisk_delta(2), 1, rng, margin)
        assert rng.bit_generator.state == state

    def test_bad_size_raises_on_the_call(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        for n in (0, -1):
            with pytest.raises(DimensionError, match="matrix size n must be at least 1"):
                random_interior_point(polydisk_delta(2), n, rng)
        assert rng.bit_generator.state == state

    def test_first_failing_draft_raises_its_error(self, monkeypatch):
        # p(x) = 1e308 (x + x^2) is 0.01 at x = 1e-310, 1e8 at x = 1e-300 (one
        # halving does not bring it under 1) and overflows at x = 1
        p = FreePolynomial(1, (((0,), 1e308), ((0, 0), 1e308)))
        delta = DeltaMatrix(1, [[p]])
        norms = domain.operator_norm

        def finite_only(stack):
            assert np.isfinite(stack).all(), "a non-finite Delta reached the SVD"
            return norms(stack)

        monkeypatch.setattr(domain, "operator_norm", finite_only)
        monkeypatch.setattr(domain, "MAX_HALVINGS", 1)

        def drafts(*values):  # a (1, k, 1, 1) stack of 1 x 1 drafts
            return np.array(values, dtype=np.complex128)[None, :, None, None]

        ok, too_big, overflow = 1e-310, 1e-300, 1.0
        margin = domain.SAMPLE_MARGIN
        assert scale_into_domain(delta, drafts(ok, ok), margin).norms[1] == pytest.approx(0.01)
        cases = (
            ((ok, overflow, too_big), "non-finite"),
            ((ok, too_big, overflow), "could not scale"),
        )
        for values, message in cases:
            with np.errstate(over="ignore"), pytest.raises(PreconditionError, match=message):
                scale_into_domain(delta, drafts(*values), margin)

    def test_blocks_hold_at_most_the_byte_budget(self):
        delta = cartan_delta(2)
        # 8 MiB of stacked Delta: 32 drafts at n = 64 (a 128 x 128 Delta), 8192 at n = 4
        assert domain.block_rows(16 * (delta.J * 64) ** 2) == 32
        assert domain.block_rows(16 * (delta.J * 4) ** 2) == 8192
        assert domain.block_rows(domain.BLOCK_BYTES + 1) == 1  # a row above the budget is a block

    def test_block_drafts_and_delta_fit_the_budget(self, monkeypatch):
        # a one-entry grid over many variables: a point's draft outweighs its 1 x 1 Delta
        budget = 64 << 10
        monkeypatch.setattr(domain, "BLOCK_BYTES", budget)
        sampled, scale = [], domain.scale_into_domain

        def recorded(delta, drafts, *args):
            stack = scale(delta, drafts, *args)
            sampled.append((len(stack.norms), drafts.nbytes + stack.delta.nbytes))
            return stack

        monkeypatch.setattr(boundary, "scale_into_domain", recorded)
        delta = DeltaMatrix(300, [[parse_poly("0.5*x0", 300)]])
        handle = NcFunctionHandle(random_realization(1, 1, 0), delta)
        # the Julia sweep's blocks: 16 (300 + 3) n^2 bytes a point with its Delta, its 1 x 1
        # model system and its step; three of size 2 fit, thirteen of size 1
        for n, sizes in ((2, [3, 3, 3, 1]), (1, [10])):
            sampled.clear()
            bp = boundary_point(delta, MatrixTuple((2.0 * np.eye(n),) + (np.zeros((n, n)),) * 299))
            julia_sweep(handle, np.random.default_rng(n), 10, bp, np.eye(n), 1.0)
            assert [rows for rows, _ in sampled] == sizes
            assert all(nbytes <= budget for _, nbytes in sampled)
        # the Gram map at T = (2 I_2, 0, ...): 20 n^2 = 80 lifts of 20 (4 x 4) components,
        # with a 4 x 4 padded grid each, twelve lifts a stack
        delta = DeltaMatrix(20, [[parse_poly("0.5*x0", 20)]])
        t = MatrixTuple((2.0 * np.eye(2),) + (np.zeros((2, 2)),) * 19)
        lifted, stack = [], domain._eval_delta_stack

        def recorded_lifts(grid, lifts):
            at_lifts = stack(grid, lifts)
            if np.ndim(lifts) == 4:  # a stack of lifts, not T itself
                lifted.append((lifts.shape[1], lifts.nbytes + at_lifts.nbytes))
            return at_lifts

        monkeypatch.setattr(domain, "_eval_delta_stack", recorded_lifts)
        boundary_point(delta, t).gram_map
        assert [rows for rows, _ in lifted] == [12] * 6 + [8]
        assert all(nbytes <= budget for _, nbytes in lifted)

    def test_gaussian_draft_matches_two_draws_per_component(self):
        # the oracle: point by point, a real and an imaginary n x n draw for each component
        for d, n in ((2, 1), (3, 2), (6, 4)):
            for count in (1, 3, 100):
                rng, oracle_rng = np.random.default_rng(d * n), np.random.default_rng(d * n)
                drafts = gaussian_drafts(d, n, rng, count)
                oracle = [
                    [
                        (oracle_rng.standard_normal((n, n))
                         + 1j * oracle_rng.standard_normal((n, n))) / np.sqrt(2.0)
                        for _ in range(d)
                    ]
                    for _ in range(count)
                ]
                assert drafts.shape == (d, count, n, n) and drafts.flags.c_contiguous
                oracle = np.ascontiguousarray(np.array(oracle).swapaxes(0, 1))
                assert np.array_equal(drafts.view(np.uint64), oracle.view(np.uint64))
                assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_block_drafts_take_one_generator_call(self):
        class CountingGenerator:
            def __init__(self, rng):
                self.rng, self.calls = rng, 0

            def standard_normal(self, *args):
                self.calls += 1
                return self.rng.standard_normal(*args)

        # the Julia sweep's 100 points at n = 2 make one block
        handle = NcFunctionHandle(random_realization(1, 2, 0), polydisk_delta(2))
        bp = boundary_point(handle.delta, MatrixTuple((np.eye(2),) * 2))
        rng = CountingGenerator(np.random.default_rng(4))
        sweep = julia_sweep(handle, rng, 100, bp, np.eye(2), 1.0)
        assert sweep.checked + sweep.skipped == 100 and rng.calls == 1


class TestDeltaJson:
    def test_round_trip(self, rng):
        for rows, cols in ((2, 2), (2, 1), (1, 3)):
            delta = DeltaMatrix(
                2, [[random_poly(rng, 2, 2, 3) for _ in range(cols)] for _ in range(rows)]
            )
            again = delta_from_json(delta_to_json(delta))
            assert again.entries == delta.entries
            assert np.shape(again.entries) == np.shape(delta.entries)

    def test_grid_side_capped_before_any_entry_is_decoded(self, monkeypatch):
        cap = domain.MAX_FAMILY_SIZE
        largest = delta_from_json({"d": 1, "entries": [["0"] * cap]})
        assert largest.J == cap

        def refuse(*args):
            raise AssertionError("decoded an entry of an oversized grid")

        monkeypatch.setattr(domain, "poly_from_json", refuse)
        for grid in ([["0"] * (cap + 1)], [["0"]] * (cap + 1)):
            with pytest.raises(ParseError, match=f"at most {cap} rows and columns"):
                delta_from_json({"d": 1, "entries": grid})

    def test_text_entries(self):
        delta = delta_from_json({"d": 2, "entries": [["x0", "0"], ["0", "x1"]]})
        assert delta.entries == polydisk_delta(2).entries
