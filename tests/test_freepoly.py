import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ncjulia import (
    DimensionError,
    FreePolynomial,
    MatrixTuple,
    ParseError,
    PolyParseError,
    PreconditionError,
    SingularMatrixError,
    eval_poly,
    format_poly,
    lift,
    matrix_to_json,
    parse_poly,
    poly_from_json,
    poly_to_json,
    tuple_from_json,
    tuple_to_json,
)
from ncjulia.freepoly import MAX_DEGREE, MAX_DEPTH, MAX_TERMS

from conftest import near_identity, random_poly, random_tuple
from oracles import direct_sum, similarity


class TestParse:
    def test_product_minus_constant(self):
        p = parse_poly("x0*x1 - 2", 2)
        assert p.terms == (((), -2 + 0j), ((0, 1), 1 + 0j))

    def test_power_and_product(self):
        p = parse_poly("x0^2 + x1*x0", 2)
        assert p.terms == (((0, 0), 1 + 0j), ((1, 0), 1 + 0j))

    def test_variable_out_of_range(self):
        with pytest.raises(PolyParseError, match="variable index out of range"):
            parse_poly("x5", 2)

    def test_negative_exponent(self):
        with pytest.raises(PolyParseError, match="negative exponent"):
            parse_poly("x0^-1", 2)

    def test_malformed_syntax_reports_position(self):
        with pytest.raises(PolyParseError) as err:
            parse_poly("x0 + * x1", 2)
        assert err.value.position == 5

    def test_juxtaposition_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("x0 x1", 2)

    def test_exponent_on_literal_rejected(self):
        with pytest.raises(PolyParseError):
            parse_poly("2^2", 1)

    def test_complex_literals(self):
        p = parse_poly("(1+2i)*x0 - 3i", 1)
        assert p.terms == (((), complex(0, -3)), ((0,), complex(1, 2)))
        assert parse_poly("i*x0", 1).terms == (((0,), 1j),)  # a bare i is the unit

    def test_group_power(self):
        p = parse_poly("(x0+x1)^2", 2)
        q = parse_poly("x0^2 + x0*x1 + x1*x0 + x1^2", 2)
        assert p == q

    def test_zero_exponent(self):
        assert parse_poly("x0^0", 1) == FreePolynomial.constant(1, 1.0)

    def test_exponent_above_cap_rejected(self):
        assert parse_poly(f"x0^{MAX_DEGREE}", 1).degree() == MAX_DEGREE
        for text in (f"x0^{MAX_DEGREE + 1}", "x0^2000", "x0^1e400", f"(2)^{MAX_DEGREE + 1}"):
            with pytest.raises(PolyParseError, match="exponent exceeds"):
                parse_poly(text, 1)

    def test_degree_cap_on_products(self):
        with pytest.raises(PolyParseError, match="degree") as err:
            parse_poly(f"x0^{MAX_DEGREE} * x0", 1)
        assert err.value.position == len(f"x0^{MAX_DEGREE} ")

    def test_term_blowup_rejected_before_expansion(self, monkeypatch):
        def expand(self, k):
            raise AssertionError("power expanded")

        monkeypatch.setattr(FreePolynomial, "__pow__", expand)
        for text in ("(x0+x1)^24", "(x0+x1+x2)^9"):
            with pytest.raises(PolyParseError, match="terms"):
                parse_poly(text, 3)

    def test_term_cap_on_products_and_sums(self):
        half = "(x0+x1)^8"  # 256 terms
        with pytest.raises(PolyParseError, match="terms"):
            parse_poly(f"{half}*{half}", 2)
        full = "(x0+x1)^12"
        assert len(parse_poly(full, 2).terms) == MAX_TERMS
        with pytest.raises(PolyParseError, match="terms"):
            parse_poly(f"{full} + x0^13", 2)

    def test_power_of_one_letter_within_cap(self):
        # (1 + x0)^64 has 2^64 term products but only 65 distinct words
        assert len(parse_poly(f"(1+x0)^{MAX_DEGREE}", 2).terms) == MAX_DEGREE + 1

    def test_nesting_depth_cap(self):
        at_cap = "(" * MAX_DEPTH + "x0" + ")" * MAX_DEPTH
        assert parse_poly(at_cap, 1) == FreePolynomial.variable(1, 0)
        for depth in (MAX_DEPTH + 1, 5000):
            with pytest.raises(PolyParseError, match="nested") as err:
                parse_poly("(" * depth + "x0" + ")" * depth, 1)
            assert err.value.position == MAX_DEPTH

    def test_overflowing_coefficients_rejected(self):
        cases = {
            "1e300*x0*1e300": 8,  # the product
            "x0 + 1e400": 5,  # the literal
            "1e308*x0 + 1e308*x0": 9,  # the sum
            "(1e200*x0)^2": 11,  # the power
        }
        for text, position in cases.items():
            with pytest.raises(PolyParseError, match="non-finite") as err:
                parse_poly(text, 1)
            assert err.value.position == position
        assert parse_poly("1e300*x0*1e8", 1).terms == (((0,), 1e308 + 0j),)


class TestFormat:
    def test_single_word(self):
        assert format_poly(FreePolynomial(2, (((0, 1), 1.0),))) == "x0*x1"

    def test_zero(self):
        assert format_poly(FreePolynomial.zero(3)) == "0"

    def test_degree_then_lex_order(self):
        p = FreePolynomial(1, (((), -2.0), ((0, 0), 1.0)))
        assert format_poly(p) == "x0^2 - 2"

    def test_repeated_letters_collapse(self):
        assert format_poly(FreePolynomial(2, (((0, 0, 1), 1.0),))) == "x0^2*x1"
        assert format_poly(FreePolynomial(2, (((0, 1, 0), 1.0),))) == "x0*x1*x0"

    def test_round_trip_random(self, rng):
        for _ in range(300):
            d = int(rng.integers(1, 4))
            p = random_poly(rng, d)
            assert parse_poly(format_poly(p), d) == p

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_parse_inverts_format(self, data):
        d = data.draw(st.integers(1, 3))
        word = st.lists(st.integers(0, d - 1), max_size=4).map(tuple)
        part = st.floats(-1e300, 1e300)
        terms = data.draw(st.lists(st.tuples(word, st.builds(complex, part, part)), max_size=5))
        p = FreePolynomial(d, tuple(terms))
        assert parse_poly(format_poly(p), d) == p

    def test_overflowed_coefficient(self):
        # 1e308 + 1e308 is inf: no polynomial holds it, so none prints or encodes it
        with pytest.raises(PreconditionError, match="coefficient is not finite"):
            FreePolynomial(1, (((0,), 1e308), ((0,), 1e308)))
        for coeff in (float("inf"), float("nan"), complex(1.0, float("-inf"))):
            with pytest.raises(PreconditionError, match="coefficient is not finite"):
                FreePolynomial(1, (((0,), coeff),))
        with pytest.raises(PreconditionError, match="coefficient is not finite"):
            FreePolynomial(1, (((0,), 1e308),)) * 10.0


class TestCanonicalForm:
    def test_duplicates_combine(self):
        p = FreePolynomial(1, (((0,), 1.0), ((0,), 2.0)))
        assert p.terms == (((0,), 3 + 0j),)

    def test_zero_coefficients_dropped(self):
        p = FreePolynomial(1, (((0,), 1.0), ((0,), -1.0)))
        assert p.is_zero()

    def test_out_of_range_word(self):
        with pytest.raises(DimensionError):
            FreePolynomial(1, (((3,), 1.0),))


class TestEval:
    def test_word_on_nilpotents(self):
        # hand product: E01 @ E10 = E00
        x = MatrixTuple((np.array([[0, 1], [0, 0]], dtype=complex),
                         np.array([[0, 0], [1, 0]], dtype=complex)))
        p = FreePolynomial(2, (((0, 1), 1.0),))
        np.testing.assert_allclose(eval_poly(p, x), [[1, 0], [0, 0]], atol=1e-15)

    def test_constant(self):
        x = MatrixTuple((np.zeros((3, 3)),))
        p = FreePolynomial.constant(1, 2.0)
        np.testing.assert_allclose(eval_poly(p, x), 2.0 * np.eye(3))

    def test_zero_polynomial(self):
        x = MatrixTuple((np.ones((2, 2)),))
        np.testing.assert_allclose(eval_poly(FreePolynomial.zero(1), x), np.zeros((2, 2)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            eval_poly(FreePolynomial.zero(2), MatrixTuple((np.eye(2),)))

    def test_linearity(self, rng):
        for _ in range(20):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            p, q = random_poly(rng, d), random_poly(rng, d)
            x = random_tuple(rng, d, n)
            np.testing.assert_allclose(
                eval_poly(p + q, x), eval_poly(p, x) + eval_poly(q, x), atol=1e-12
            )

    def test_scalar_level_matches_commutative_evaluation(self, rng):
        # independent oracle: term-by-term scalar arithmetic in pure Python
        for _ in range(50):
            d = int(rng.integers(1, 4))
            p = random_poly(rng, d)
            zs = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(d)]
            expected = 0j
            for word, coeff in p.terms:
                prod = coeff
                for letter in word:
                    prod *= zs[letter]
                expected += prod
            x = MatrixTuple.from_scalars(zs)
            assert eval_poly(p, x)[0, 0] == pytest.approx(expected, abs=1e-12)


class TestLift:
    def test_stacked_directions_lift_one_by_one(self, rng):
        t = random_tuple(rng, 2, 3)
        hs = [[random_tuple(rng, 2, 3) for _ in range(3)] for _ in range(2)]
        comps = np.array([[[h.components[r] for h in row] for row in hs] for r in range(2)])
        stacked = lift(t, comps)  # directions on two middle axes: (d, 2, 3, n, n)
        assert stacked.shape == (2, 2, 3, 6, 6)
        for a, row in enumerate(hs):
            for b, h in enumerate(row):
                assert np.array_equal(stacked[:, a, b], lift(t, h))

    def test_directions_of_another_shape_refused(self, rng):
        t = random_tuple(rng, 2, 3)
        for comps in (np.zeros((3, 3, 3)), np.zeros((2, 4, 2, 2)), np.zeros((2, 3))):
            with pytest.raises(DimensionError, match="direction components are"):
                lift(t, comps)


class TestDerivative:
    def test_product_rule_exact(self, rng):
        p = FreePolynomial(2, (((0, 1), 1.0),))
        t = random_tuple(rng, 2, 3)
        h = random_tuple(rng, 2, 3)
        expected = (h.components[0] @ t.components[1]
                    + t.components[0] @ h.components[1])
        # p'(t)[h] is the top-right block of p at lift(t, h)
        corner = eval_poly(p, MatrixTuple(tuple(lift(t, h))))[:3, 3:]
        np.testing.assert_allclose(corner, expected, atol=1e-14)

    def test_constant_derivative_zero(self, rng):
        p = FreePolynomial.constant(2, 5.0)
        t = random_tuple(rng, 2, 2)
        h = random_tuple(rng, 2, 2)
        corner = eval_poly(p, MatrixTuple(tuple(lift(t, h))))[:2, 2:]
        np.testing.assert_allclose(corner, np.zeros((2, 2)))

    def test_against_central_difference(self, rng):
        step = 1e-5
        for _ in range(50):
            d, n = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            p = random_poly(rng, d)
            t = random_tuple(rng, d, n)
            h = random_tuple(rng, d, n)
            analytic = eval_poly(p, MatrixTuple(tuple(lift(t, h))))[:n, n:]
            plus = eval_poly(p, t + step * h)
            minus = eval_poly(p, t + (-step) * h)
            fd = (plus - minus) / (2 * step)
            scale = max(1.0, np.linalg.norm(analytic, 2))
            assert np.linalg.norm(analytic - fd, 2) / scale <= 1e-6


class TestTupleOps:
    def test_direct_sum_scalars(self):
        x = MatrixTuple.from_scalars([1.0])
        y = MatrixTuple.from_scalars([-1.0])
        z = direct_sum(x, y)
        np.testing.assert_allclose(z.components[0], np.diag([1.0, -1.0]))

    def test_direct_sum_of_zeros(self):
        z = direct_sum(MatrixTuple((np.zeros((2, 2)),)), MatrixTuple((np.zeros((3, 3)),)))
        np.testing.assert_allclose(z.components[0], np.zeros((5, 5)))

    def test_direct_sum_d_mismatch(self):
        with pytest.raises(DimensionError):
            direct_sum(MatrixTuple((np.eye(2),)), MatrixTuple((np.eye(2), np.eye(2))))

    def test_eval_respects_direct_sums(self, rng):
        for _ in range(20):
            d = int(rng.integers(1, 3))
            p = random_poly(rng, d)
            x = random_tuple(rng, d, int(rng.integers(1, 3)))
            y = random_tuple(rng, d, int(rng.integers(1, 3)))
            lhs = eval_poly(p, direct_sum(x, y))
            rhs = np.zeros_like(lhs)
            rhs[: x.n, : x.n] = eval_poly(p, x)
            rhs[x.n :, x.n :] = eval_poly(p, y)
            np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_similarity_identity_matrix(self, rng):
        x = random_tuple(rng, 2, 3)
        y = similarity(x, np.eye(3))
        for a, b in zip(x.components, y.components):
            np.testing.assert_allclose(a, b, atol=1e-14)

    def test_similarity_scalar_matrix_is_noop(self, rng):
        x = random_tuple(rng, 2, 3)
        y = similarity(x, 2.0 * np.eye(3))
        for a, b in zip(x.components, y.components):
            np.testing.assert_allclose(a, b, atol=1e-12)

    def test_eval_respects_similarity(self, rng):
        for _ in range(20):
            d, n = int(rng.integers(1, 3)), int(rng.integers(2, 4))
            p = random_poly(rng, d)
            x = random_tuple(rng, d, n)
            s = near_identity(rng, n)
            lhs = eval_poly(p, similarity(x, s))
            rhs = np.linalg.solve(s, eval_poly(p, x) @ s)
            assert np.linalg.norm(lhs - rhs, 2) <= 1e-9 * max(1, np.linalg.norm(rhs, 2))

    def test_singular_similarity_rejected(self, rng):
        x = random_tuple(rng, 1, 2)
        with pytest.raises(SingularMatrixError):
            similarity(x, np.diag([1.0, 0.0]))


class TestJson:
    def test_poly_round_trip(self, rng):
        for _ in range(20):
            p = random_poly(rng, 2)
            assert poly_from_json(poly_to_json(p)) == p

    def test_poly_from_text(self):
        assert poly_from_json("x0*x1", 2) == parse_poly("x0*x1", 2)

    def test_non_finite_coefficients_rejected(self):
        inf, nan = float("inf"), float("nan")
        for coeffs in ([[inf, 0.0]], [[0.0, nan]], [["-inf", 0.0]], [[1e308, 0.0], [1e308, 0.0]]):
            obj = {"d": 1, "terms": [{"coeff": c, "word": [0]} for c in coeffs]}
            with pytest.raises(ParseError, match="not finite"):
                poly_from_json(json.loads(json.dumps(obj)))
        with pytest.raises(ParseError):
            poly_from_json("1e300*x0*1e300", 1)

    def test_term_count_capped_before_any_term_is_decoded(self):
        malformed = {"coeff": "not a pair", "word": [0]}
        with pytest.raises(ParseError, match=f"more than {MAX_TERMS}"):
            poly_from_json({"d": 1, "terms": [malformed] * (MAX_TERMS + 1)})
        term = {"coeff": [1.0, 0.0], "word": [0]}
        assert poly_from_json({"d": 1, "terms": [term] * MAX_TERMS}).terms == (((0,), MAX_TERMS + 0j),)

    def test_word_length_capped(self):
        def word_of(length):
            return {"d": 2, "terms": [{"coeff": [0.5, 0.0], "word": [0] * length}]}

        assert poly_from_json(word_of(MAX_DEGREE)).degree() == MAX_DEGREE
        for length in (MAX_DEGREE + 1, 200_000):
            with pytest.raises(ParseError, match=f"exceeds the maximum {MAX_DEGREE}"):
                poly_from_json(word_of(length))

    def test_tuple_round_trip(self, rng):
        x = random_tuple(rng, 2, 3)
        y = tuple_from_json(tuple_to_json(x))
        for a, b in zip(x.components, y.components):
            np.testing.assert_array_equal(a, b)

    def test_tuple_scalars_shorthand(self):
        x = tuple_from_json({"scalars": [[0.5, 0.0], [0.0, -1.0]]})
        assert x.n == 1 and x.d == 2
        assert x.components[1][0, 0] == -1j

    def test_listed_d_and_n_checked_in_either_form(self):
        for form in (
            {"scalars": [[0.5, 0.0], [0.3, 0.0]]},
            {"components": [matrix_to_json(np.full((1, 1), v)) for v in (0.5, 0.3)]},
        ):
            assert tuple_from_json({**form, "d": 2, "n": 1}).d == 2
            with pytest.raises(ParseError, match="point lists d=3 but has 2 components"):
                tuple_from_json({**form, "d": 3, "n": 4})
            with pytest.raises(ParseError, match="point lists n=4 but components are 1 x 1"):
                tuple_from_json({**form, "n": 4})

    def test_bare_list_of_matrices_rejected(self):
        with pytest.raises(ParseError, match="'components' or 'scalars'"):
            tuple_from_json([matrix_to_json(np.eye(2))])
