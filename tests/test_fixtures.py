import numpy as np
import pytest

from ncjulia import (
    MatrixTuple,
    NcFunctionHandle,
    PreconditionError,
    SingularMatrixError,
    ball_delta,
    boundary_point,
    cartan_delta,
    eval_phi,
    example_eta,
    example_f,
    example_phi_closed,
    example_psi,
    get_closed_form,
    get_delta,
    get_fixture,
    in_G_delta,
    list_fixtures,
    operator_norm,
    parse_poly,
    polydisk_delta,
)
from ncjulia.errors import ParseError, UnknownNameError

from conftest import random_contraction, random_tuple
from oracles import eval_phi_neumann


def unitary_test_pair():
    return MatrixTuple(
        (np.diag([1.0, -1.0]).astype(complex), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    )


class TestBuiltinDeltas:
    def test_polydisk_structure(self):
        d = polydisk_delta(3)
        assert d.J == 3 and np.shape(d.entries) == (3, 3)
        assert d.entries[0][0] == parse_poly("x0", 3)
        assert d.entries[0][1].is_zero()

    def test_ball_structure(self):
        d = ball_delta(2)
        assert d.J == 2 and np.shape(d.entries) == (2, 1)

    def test_cartan_structure(self):
        d = cartan_delta(2)
        assert d.d == 3 and d.J == 2
        assert d.entries[0][0] == parse_poly("x0", 3)
        assert d.entries[0][1] == parse_poly("x1", 3)
        assert d.entries[1][0] == parse_poly("x1", 3)
        assert d.entries[1][1] == parse_poly("x2", 3)

    def test_cartan_membership_is_symmetric_contraction(self, rng):
        d = cartan_delta(2)
        x = MatrixTuple.from_scalars([0.3, 0.2, -0.1])
        m = in_G_delta(d, x)
        s = np.array([[0.3, 0.2], [0.2, -0.1]])
        assert m.norm == pytest.approx(np.linalg.norm(s, 2))


class TestExampleScalars:
    def test_f_origin(self):
        assert example_f(0.0, 0.0) == 0.0

    def test_f_diagonal(self):
        for t in (0.2, 0.5, 0.9):
            assert example_f(t, t) == pytest.approx(t)

    def test_f_derived_value(self):
        assert example_f(0.5, 0.3) == pytest.approx(5.0 / 12.0)

    def test_f_pole(self):
        with pytest.raises(PreconditionError):
            example_f(1.0, 1.0)


class TestPhiClosed:
    def test_equal_arguments(self, rng):
        z = random_contraction(rng, 3)
        np.testing.assert_allclose(
            example_phi_closed(MatrixTuple((z, z))), z, atol=1e-12
        )

    def test_commuting_diagonal_pair(self):
        zs = [0.3 + 0.1j, -0.5]
        ws = [0.2, 0.6 - 0.2j]
        x = MatrixTuple((np.diag(zs), np.diag(ws)))
        expected = np.diag([example_f(z, w) for z, w in zip(zs, ws)])
        np.testing.assert_allclose(example_phi_closed(x), expected, atol=1e-12)

    def test_matches_realization(self, rng):
        h = get_fixture("example-h1").handle
        for _ in range(30):
            x = random_tuple(rng, 2, int(rng.integers(1, 4)), max_norm=0.9)
            np.testing.assert_allclose(
                example_phi_closed(x), eval_phi(h, x), atol=1e-9
            )

    def test_singular_resolvent(self):
        x = MatrixTuple((np.eye(2, dtype=complex), np.eye(2, dtype=complex)))
        with pytest.raises(SingularMatrixError):
            example_phi_closed(x)


class TestPsi:
    def test_unitary_pair_value_and_norm(self):
        psi = example_psi(unitary_test_pair())
        np.testing.assert_array_equal(psi.real, [[2.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(psi.imag, np.zeros((2, 2)))
        assert operator_norm(psi) == pytest.approx(1.0 + np.sqrt(2.0), abs=1e-12)

    def test_commuting_scalars_agree_with_f(self, rng):
        for _ in range(20):
            z = complex(*rng.uniform(-0.6, 0.6, 2))
            w = complex(*rng.uniform(-0.6, 0.6, 2))
            x = MatrixTuple.from_scalars([z, w])
            assert example_psi(x)[0, 0] == pytest.approx(example_f(z, w), abs=1e-12)

    def test_interior_norm_exceeds_one(self):
        # pinned regression: the scaled unitary pair stays interior but psi
        # already breaks the contractivity bound there
        z = unitary_test_pair()
        r = 0.99
        interior = MatrixTuple(tuple(r * c for c in z.components))
        assert in_G_delta(polydisk_delta(2), interior)
        assert operator_norm(example_psi(interior)) > 1.0


class TestEtaClosedForm:
    def test_equal_components(self, rng):
        a = random_contraction(rng, 3)
        np.testing.assert_allclose(example_eta(MatrixTuple((a, a))), a, atol=1e-14)

    def test_scalar_diagonal(self):
        assert example_eta(MatrixTuple.from_scalars([-1.0, -1.0]))[0, 0] == pytest.approx(-1.0)

    def test_exact_homogeneity(self, rng):
        from conftest import random_admissible_direction

        h = random_admissible_direction(rng, 2)
        for s in (0.3, 0.5):
            np.testing.assert_allclose(
                example_eta(s * h), s * example_eta(h), atol=1e-13
            )

    def test_singular_sum(self):
        with pytest.raises(SingularMatrixError):
            example_eta(MatrixTuple.from_scalars([1.0, -1.0]))


class TestContractionBound:
    def test_specialized_inequality(self, rng):
        # ||phi(Z) - I||^2 / ||I - phi* phi|| <= max_r ||I - Z^r||^2 / (1 - max_r ||Z^r||^2)
        h = get_fixture("example-h1").handle
        t = MatrixTuple((np.eye(2),) * 2)
        for _ in range(100):
            z = random_tuple(rng, 2, 2, max_norm=0.9)
            phi = example_phi_closed(z)
            den = operator_norm(np.eye(2) - phi.conj().T @ phi)
            if den <= 1e-12:
                continue
            lhs = operator_norm(phi - np.eye(2)) ** 2 / den
            rhs = max(operator_norm(np.eye(2) - c) for c in z.components) ** 2 / (
                1.0 - max(operator_norm(c) for c in z.components) ** 2
            )
            assert lhs <= rhs * (1 + 1e-8) + 1e-12

    def test_equality_for_scalar_diagonal(self, rng):
        for _ in range(20):
            z = complex(*rng.uniform(-0.6, 0.6, 2))
            x = MatrixTuple.from_scalars([z, z])
            phi = example_phi_closed(x)[0, 0]
            lhs = abs(phi - 1.0) ** 2 / abs(1 - abs(phi) ** 2)
            rhs = abs(1 - z) ** 2 / (1 - abs(z) ** 2)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_three_way_oracle_agreement(self, rng):
        h = get_fixture("example-h1").handle
        for _ in range(20):
            x = random_tuple(rng, 2, 2, max_norm=0.9)
            direct = eval_phi(h, x)
            closed = example_phi_closed(x)
            series = eval_phi_neumann(h, x, terms=250)
            assert operator_norm(direct - closed) <= 1e-9
            assert operator_norm(direct - series.value) <= series.truncation_bound + 1e-10


class TestRegistry:
    def test_listing(self):
        names = list_fixtures()
        assert "example-h1" in names
        assert "example-h3-eta" in names

    def test_get_delta_families(self):
        assert get_delta("polydisk:3").d == 3
        assert np.shape(get_delta("ball:2").entries) == (2, 1)
        assert get_delta("cartan:2").d == 3
        assert get_delta("example-h1").d == 2

    def test_get_delta_unknown(self):
        with pytest.raises(ParseError):
            get_delta("octagon:4")
        with pytest.raises(ParseError):
            get_delta("polydisk:x")

    def test_unknown_names_raise_unknown_name_error(self):
        for lookup, name in (
            (get_fixture, "example-h9"), (get_delta, "octagon:4"), (get_delta, "blob"),
            (get_closed_form, "example-h9"),
        ):
            with pytest.raises(UnknownNameError, match=f"^unknown .*{name!r}"):
                lookup(name)
        # a known family with a bad size names something: a plain ParseError
        for name in ("polydisk:99", "polydisk:x", "polydisk:0"):
            with pytest.raises(ParseError) as err:
                get_delta(name)
            assert type(err.value) is ParseError

    def test_closed_form_lookup(self):
        fn = get_closed_form("example-h3-eta")
        assert fn is example_eta
        with pytest.raises(ParseError):
            get_closed_form("example-h9")

    def test_fixture_handle(self):
        h = get_fixture("example-h1").handle
        assert isinstance(h, NcFunctionHandle)
        assert h.realization.isometry_defect <= 1e-12

    def test_ball_distinguished_point(self):
        assert boundary_point(ball_delta(2), MatrixTuple.from_scalars([0.6, 0.8])).distinguished

    def test_bad_sizes(self):
        with pytest.raises(ParseError):
            get_delta("polydisk:0")
