import numpy as np
import pytest

from ncjulia import (
    DimensionError,
    PreconditionError,
    SingularMatrixError,
    extrapolate_limit,
    haar_unitary,
    inward_margin,
    matrix_from_json,
    matrix_to_json,
    min_norm_solve,
    nearest_unitary,
    operator_norm,
)
from ncjulia.errors import ParseError

from conftest import (
    extrapolate_pairs, hermitian_part_max_eig, is_self_adjoint, numerical_rank, random_matrix,
)


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(2)) == pytest.approx(1.0)

    def test_diagonal(self):
        assert operator_norm(np.diag([0.5, -0.3])) == pytest.approx(0.5)

    def test_nilpotent(self):
        assert operator_norm([[0, 2], [0, 0]]) == pytest.approx(2.0)

    def test_empty_and_zero(self):
        for shape in ((0, 3), (3, 0), (0, 0), (2, 2)):
            norm = operator_norm(np.zeros(shape))
            assert norm == 0.0 and type(norm) is float

    def test_rejects_nan(self):
        # one refusal for every rank: a scalar and a vector are coerced to a matrix first
        for m in (
            np.nan,
            complex(1.0, np.inf),
            [1.0, -np.inf],
            [[np.nan, 0], [0, 1]],
            np.full((2, 3, 2, 2), 1.0 + np.nan * 1j),
        ):
            with pytest.raises(PreconditionError, match="^matrix contains non-finite entries$"):
                operator_norm(m)

    def test_equals_numpy_spectral_norm(self, rng):
        for shape in ((1, 1), (3, 3), (6, 6), (2, 5), (7, 3)):
            m = random_matrix(rng, *shape)
            assert operator_norm(m) == np.linalg.norm(m, 2)
        for shape in ((2, 2), (3, 1)):
            assert operator_norm(np.zeros(shape)) == np.linalg.norm(np.zeros(shape), 2)

    def test_stack_equals_each_matrix_bit_for_bit(self, rng):
        for shape in ((4, 3, 3), (5, 2, 5), (3, 7, 1), (2, 3, 2, 4)):
            stack = random_matrix(rng, int(np.prod(shape[:-1])), shape[-1]).reshape(shape)
            norms = operator_norm(stack)
            assert isinstance(norms, np.ndarray) and norms.shape == shape[:-2]
            for index in np.ndindex(*shape[:-2]):
                assert norms[index] == operator_norm(stack[index])
        # a real stack is coerced to complex128, as each of its matrices is, so its norms
        # are theirs bit for bit (a real SVD differs in the last bit in about 40 % of these)
        for _ in range(50):
            real = rng.standard_normal((6, 4, 4))
            assert operator_norm(real).tolist() == [operator_norm(m) for m in real]

    def test_stack_of_no_rows_and_of_empty_matrices(self):
        assert operator_norm(np.zeros((0, 3, 3))).shape == (0,)
        for shape in ((4, 0, 3), (2, 3, 3, 0)):
            norms = operator_norm(np.zeros(shape, dtype=np.complex128))
            assert norms.shape == shape[:-2] and not norms.any()
            assert operator_norm(np.zeros(shape[-2:])) == 0.0

    def test_stack_rejects_nan(self):
        stack = np.zeros((3, 2, 2), dtype=np.complex128)
        stack[1, 0, 1] = np.nan
        with pytest.raises(PreconditionError, match="non-finite"):
            operator_norm(stack)
        stack = np.zeros((2, 3, 2, 2))
        stack[1, 2, 0, 0] = np.inf
        with pytest.raises(PreconditionError, match="non-finite"):
            operator_norm(stack)

    def test_unitary_invariance_and_submultiplicativity(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 6))
            m = random_matrix(rng, n)
            u = haar_unitary(n, rng)
            v = haar_unitary(n, rng)
            assert operator_norm(u @ m @ v) == pytest.approx(operator_norm(m), abs=1e-12)
            b = random_matrix(rng, n)
            assert operator_norm(m @ b) <= operator_norm(m) * operator_norm(b) + 1e-12


class TestHermitianPartEigs:
    """``inward_margin``, the margin -lambda_max((M + M*)/2) of a cone matrix M."""

    def test_already_hermitian(self):
        assert inward_margin(np.diag([-1.0, -2.0])) == pytest.approx(1.0)

    def test_skew(self):
        assert inward_margin([[0, 1], [-1, 0]]) == pytest.approx(0.0)

    def test_derived_2x2(self):
        # hand oracle: herm([[1,-1],[-1,1]]) has char poly (l-1)^2 - 1, eigs {0, 2}
        assert inward_margin([[1, -1], [-1, 1]]) == pytest.approx(-2.0)

    def test_max_is_minus_min_of_negation(self, rng):
        # bit for bit the pre-change form: minus the largest eigenvalue, read as the
        # smallest eigenvalue of the negation's Hermitian part
        for _ in range(20):
            m = random_matrix(rng, 4)
            assert inward_margin(m) == -hermitian_part_max_eig(m)

    def test_non_square(self):
        with pytest.raises(DimensionError):
            inward_margin(np.zeros((2, 3)))


class TestIsSelfAdjoint:
    """The oracle's self-adjointness test, which the inward-cone properties compare with."""

    def test_real_diagonal(self):
        assert is_self_adjoint(np.diag([1.0, -1.0]), 1e-12)

    def test_imaginary_offdiagonal(self):
        assert not is_self_adjoint([[0, 1j], [1j, 0]], 1e-12)

    def test_zero(self):
        assert is_self_adjoint(np.zeros((3, 3)), 1e-12)

    def test_non_square(self):
        with pytest.raises(DimensionError):
            is_self_adjoint(np.zeros((2, 3)))


class TestMinNormSolve:
    def test_rank_one_consistent(self):
        # hand oracle: row space of [[.5,.5],[.5,.5]] is span{(1,1)}, and
        # (1,1)/sqrt(2) maps to (1,1)/sqrt(2); minimum-norm solution is itself
        m = np.array([[0.5, 0.5], [0.5, 0.5]])
        b = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
        out = min_norm_solve(m, b)
        np.testing.assert_allclose(out.solution, b, atol=1e-14)
        assert out.residual_norm <= 1e-14
        assert out.consistent

    def test_zero_zero(self):
        out = min_norm_solve(np.zeros((2, 2)), np.zeros((2, 1)))
        np.testing.assert_allclose(out.solution, 0, atol=1e-15)
        assert out.residual_norm == 0.0
        assert out.consistent

    def test_inconsistent(self):
        out = min_norm_solve(np.zeros((2, 2)), np.array([[1.0], [0.0]]))
        np.testing.assert_allclose(out.solution, 0, atol=1e-15)
        assert out.residual_norm == pytest.approx(1.0)
        assert not out.consistent

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            min_norm_solve(np.zeros((2, 2)), np.zeros((3, 1)))

    def test_solution_orthogonal_to_kernel(self, rng):
        for _ in range(30):
            p, q = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            r = int(rng.integers(1, min(p, q)))
            m = random_matrix(rng, p, r) @ random_matrix(rng, r, q)
            b = random_matrix(rng, p, 1)
            out = min_norm_solve(m, b)
            _, _, vh = np.linalg.svd(m)
            kernel = vh.conj().T[:, r:]
            for k in range(kernel.shape[1]):
                assert abs(kernel[:, k].conj() @ out.solution[:, 0]) <= 1e-10


class TestNearestUnitary:
    def test_unitary_fixed(self, rng):
        u = haar_unitary(4, rng)
        np.testing.assert_allclose(nearest_unitary(u), u, atol=1e-12)

    def test_positive_scalar_stripped(self):
        np.testing.assert_allclose(nearest_unitary(2.0 * np.eye(3)), np.eye(3), atol=1e-14)

    def test_positive_diagonal_stripped(self):
        np.testing.assert_allclose(nearest_unitary(np.diag([3.0, 0.5])), np.eye(2), atol=1e-14)

    def test_rank_deficient(self):
        with pytest.raises(SingularMatrixError) as err:
            nearest_unitary(np.diag([1.0, 0.0]))
        assert err.value.smallest_singular_value == pytest.approx(0.0)

    def test_output_unitary(self, rng):
        for _ in range(30):
            n = int(rng.integers(1, 6))
            u = nearest_unitary(random_matrix(rng, n) + 2 * np.eye(n))
            assert operator_norm(u.conj().T @ u - np.eye(n)) <= 1e-12


class TestNumericalRank:
    """The oracle's complex rank, which the inward-cone properties compare with."""

    def test_dependent_triple(self):
        e1 = np.array([1.0, 0, 0])
        e2 = np.array([0, 1.0, 0])
        assert numerical_rank([e1, e2, e1 + e2]) == 2

    def test_zero_vector(self):
        assert numerical_rank([np.zeros(3)]) == 0
        assert numerical_rank([]) == 0

    def test_tolerance_collapses_near_duplicates(self):
        v1 = np.array([1.0, 1.0])
        v2 = np.array([1.0, 1.0 + 1e-14])
        assert numerical_rank([v1, v2], tol=1e-10) == 1


class TestExtrapolateLimit:
    def test_constant(self):
        res = extrapolate_limit([0.1, 0.05], [3.0, 3.0])
        assert res.value == pytest.approx(3.0)
        assert res.increments == (0.0,)

    def test_first_order_annihilated(self):
        res = extrapolate_limit([0.1, 0.05], [1.1, 1.05])
        assert complex(res.value.reshape(())) == pytest.approx(1.0)

    def test_second_order_residual(self):
        # algebra: 2 (t/2)^2 - t^2 = -t^2 / 2
        t = 0.2
        res = extrapolate_limit([t, t / 2], [t**2, (t / 2) ** 2])
        assert complex(res.value.reshape(())) == pytest.approx(-(t**2) / 2)

    def test_linear_matrix_recovery(self, rng):
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 3)
        steps = [0.4, 0.2, 0.1, 0.05]
        res = extrapolate_limit(steps, [a + t * b for t in steps])
        np.testing.assert_allclose(res.value, a, atol=1e-14)

    def test_increments_equal_numpy_spectral_norm(self, rng):
        steps = [0.4 * 2.0**-k for k in range(5)]
        for shape in ((1, 1), (3, 3), (2, 5)):
            values = random_matrix(rng, 5 * shape[0], shape[1]).reshape(5, *shape)
            expected = tuple(float(np.linalg.norm(b - a, 2)) for a, b in zip(values, values[1:]))
            assert extrapolate_limit(steps, values).increments == expected
        scalar = extrapolate_limit([0.2, 0.1, 0.05], [1.0 + 2j, 0.5 - 1j, 0.25])
        assert scalar.increments == tuple(
            float(np.linalg.norm(np.atleast_2d(z), 2)) for z in (-0.5 - 3j, -0.25 + 1j)
        )

    def test_rows_equal_the_pair_form_bit_for_bit(self, rng):
        def bits(res):
            value = np.ascontiguousarray(res.value)
            return value.shape, value.view(np.uint64).tolist(), res.increments

        shapes = ((), (1,), (3,), (1, 1), (2, 2), (3, 5), (4, 1), (0, 2))
        for case in range(600):
            shape = shapes[case % len(shapes)]
            count = int(rng.integers(2, 8))
            first = float(rng.uniform(0.01, 1.0))
            steps = [first * 2.0**-k for k in range(count)]
            values = rng.standard_normal((count, *shape))
            if case % 3:  # complex rows; the real ones are coerced alike
                values = values + 1j * rng.standard_normal((count, *shape))
            pairs = list(zip(steps, values))
            assert bits(extrapolate_limit(steps, values)) == bits(extrapolate_pairs(pairs))
            if not shape:  # Python numbers, as the scalar diagnostics pass them
                listed = values.tolist()
                assert bits(extrapolate_limit(steps, listed)) == bits(extrapolate_pairs(pairs))

    def test_steps_and_rows_must_match(self):
        with pytest.raises(DimensionError):
            extrapolate_limit([0.1, 0.05, 0.025], [1.0, 2.0])
        with pytest.raises(DimensionError):
            extrapolate_limit([0.1, 0.05], [[1.0, 2.0, 3.0]])
        with pytest.raises(DimensionError):
            extrapolate_limit([0.1, 0.05], 1.0)

    def test_too_few_samples(self):
        with pytest.raises(PreconditionError):
            extrapolate_limit([0.1], [1.0])

    def test_non_geometric_spacing(self):
        with pytest.raises(PreconditionError):
            extrapolate_limit([0.1, 0.03], [1.0, 1.0])

    def test_increasing_t_rejected(self):
        with pytest.raises(PreconditionError):
            extrapolate_limit([0.05, 0.1], [1.0, 1.0])


class TestMatrixJson:
    def test_round_trip(self, rng):
        m = random_matrix(rng, 3, 2)
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_malformed(self):
        with pytest.raises(ParseError):
            matrix_from_json({"rows": 2, "cols": 2, "data": [[1, 0]]})
        with pytest.raises(ParseError):
            matrix_from_json([1, 2, 3])
