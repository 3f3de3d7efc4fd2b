"""The tiny-matrix kernels against their oracles, bit for bit.

``freepoly.eval_words`` starts each word's product at its first letter, the
grid evaluation skips zero entries and ``MatrixTuple.max_component_norm``
takes one batched SVD.  The oracles in conftest start each product at I,
evaluate every entry and take one SVD per component.  The inputs draw signed
zeros, so equal arrays must also carry equal signs.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ncjulia import DeltaMatrix, MatrixTuple, get_delta, lift, parse_poly
from ncjulia.domain import _eval_delta_stack
from ncjulia.freepoly import eval_words

from conftest import (
    assert_same_bits, eval_delta_oracle, eval_words_oracle, max_component_norm_oracle,
)

# a grid with a zero entry, constant terms and words of up to three letters
MIXED_GRID = DeltaMatrix(
    2,
    [
        [parse_poly(entry, 2) for entry in row]
        for row in (("0.5 + x0*x1", "0"), ("x1 - 2i*x1*x0*x1", "x0^2 - 1"))
    ],
)
GRIDS = [get_delta("polydisk:3"), get_delta("ball:3"), get_delta("cartan:2"), MIXED_GRID]
# real and imaginary parts: signed zeros, units and any float of modest size
PARTS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]) | st.floats(-2.0, 2.0)
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def complex_array(data, shape):
    size = int(np.prod(shape))
    parts = data.draw(st.lists(PARTS, min_size=2 * size, max_size=2 * size))
    out = np.empty(shape, dtype=np.complex128)
    out.real, out.imag = np.reshape(parts, (2, *shape))
    return out


def components(data, d, forms=("plain", "stacked", "lifted")):
    """d components: a tuple's (n, n) ones, a (d, B, n, n) stack or a (d, 2n, 2n) lift."""
    n, form = data.draw(st.integers(1, 3)), data.draw(st.sampled_from(forms))
    if form == "stacked":
        return complex_array(data, (d, data.draw(st.integers(1, 3)), n, n))
    t = MatrixTuple(tuple(complex_array(data, (d, n, n))))
    if form == "lifted":
        return lift(t, MatrixTuple(tuple(complex_array(data, (d, n, n)))))
    return t.components


@PROPERTY
@given(st.data())
def test_eval_words_equals_the_product_started_at_identity(data):
    grid = data.draw(st.sampled_from(GRIDS))
    at = components(data, grid.d)
    for row in grid.entries:
        for p in row:
            assert_same_bits(eval_words(p, at), eval_words_oracle(p, at))


@PROPERTY
@given(st.data())
def test_grid_evaluation_equals_every_entry_evaluated(data):
    grid = data.draw(st.sampled_from(GRIDS))
    at = components(data, grid.d)
    assert_same_bits(_eval_delta_stack(grid, at), eval_delta_oracle(grid, at))


@PROPERTY
@given(st.data())
def test_max_component_norm_equals_one_norm_per_component(data):
    x = MatrixTuple(tuple(components(data, data.draw(st.integers(1, 3)), ("plain", "lifted"))))
    norm = x.max_component_norm()
    assert type(norm) is float and norm == max_component_norm_oracle(x)
