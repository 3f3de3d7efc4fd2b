"""Round trips of the JSON wire formats: matrix, polynomial, delta grid, point, realization.

Each value is encoded, written as JSON text, read back and decoded.  The
decoded value must equal the original, and encoding it again must give the
same text, byte for byte, so signed zeros and subnormals survive too.
"""

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from ncjulia import (
    DeltaMatrix,
    FreePolynomial,
    MatrixTuple,
    delta_from_json,
    delta_to_json,
    matrix_from_json,
    matrix_to_json,
    poly_from_json,
    poly_to_json,
    random_realization,
    realization_from_json,
    realization_to_json,
    tuple_from_json,
    tuple_to_json,
)

ROUND_TRIP = settings(derandomize=True, max_examples=60, deadline=None)
# finite parts of every size, signed zeros and subnormals included; a sum of five
# polynomial coefficients of at most 1e300 stays finite
PARTS = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.5, -2.25])
COMPLEX = st.builds(complex, PARTS, PARTS)


def round_trip(value, encode, decode):
    """decode(JSON text of encode(value)), after checking that it encodes to the same text."""
    text = json.dumps(encode(value))
    decoded = decode(json.loads(text))
    assert json.dumps(encode(decoded)) == text
    return decoded


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bit patterns, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=np.complex128), np.asarray(b, dtype=np.complex128)
    return a.shape == b.shape and a.view(np.int64).tobytes() == b.view(np.int64).tobytes()


def matrices(rows, cols):
    return st.lists(COMPLEX, min_size=rows * cols, max_size=rows * cols).map(
        lambda data: np.array(data, dtype=np.complex128).reshape(rows, cols)
    )


def polynomials(d):
    word = st.lists(st.integers(0, d - 1), max_size=4).map(tuple) if d else st.just(())
    terms = st.lists(st.tuples(word, COMPLEX), max_size=5)
    return terms.map(lambda ts: FreePolynomial(d, tuple(ts)))


@ROUND_TRIP
@given(st.integers(0, 3).flatmap(lambda r: st.integers(0, 3).flatmap(lambda c: matrices(r, c))))
def test_matrix_round_trip(m):
    assert same_bits(round_trip(m, matrix_to_json, matrix_from_json), m)


@ROUND_TRIP
@given(st.integers(0, 3).flatmap(polynomials))
def test_polynomial_round_trip(p):
    assert round_trip(p, poly_to_json, poly_from_json) == p


@ROUND_TRIP
@given(st.data())
def test_delta_round_trip(data):
    d, rows, cols = (data.draw(st.integers(1, 3)) for _ in range(3))
    grid = [[data.draw(polynomials(d)) for _ in range(cols)] for _ in range(rows)]
    delta = DeltaMatrix(d, grid)
    decoded = round_trip(delta, delta_to_json, delta_from_json)
    # non-square grids keep their shape: the padding to J x J is not part of the value
    assert decoded == delta and len(decoded.entries) == rows and len(decoded.entries[0]) == cols


@ROUND_TRIP
@given(st.integers(1, 3).flatmap(lambda n: st.lists(matrices(n, n), min_size=1, max_size=3)))
def test_tuple_round_trip(components):
    x = MatrixTuple(tuple(components))
    decoded = round_trip(x, tuple_to_json, tuple_from_json)
    assert decoded.d == x.d and all(map(same_bits, decoded.components, x.components))


@settings(derandomize=True, max_examples=20, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_realization_round_trip(dim_e, j, seed):
    r = random_realization(dim_e, j, seed)
    decoded = round_trip(r, realization_to_json, realization_from_json)
    assert (decoded.dim_E, decoded.J) == (r.dim_E, r.J)
    for name in ("A", "B", "C", "D"):
        assert same_bits(getattr(decoded, name), getattr(r, name)), name
    assert decoded.isometry_defect == r.isometry_defect
