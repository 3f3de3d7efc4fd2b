"""NC axioms of ``evaluate`` for random colligations: it respects direct sums and similarities.

A free function phi of the realization satisfies phi(x + y) = phi(x) + phi(y)
on direct sums and phi(S^-1 x S) = S^-1 phi(x) S on similarities.  Each case
draws a ``random_realization`` colligation on polydisk:2, ball:2 or cartan:2
and interior points of size n = 1 or 2.  The similarity S = I + E has
||E|| <= 0.1, so its condition number is at most 11/9; Delta of every grid
here is linear, so ||Delta(S^-1 x S)|| <= 11/9 * 0.7 < 1 for a point
sampled with margin 0.3, and the conjugated point stays interior.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from ncjulia import (
    NcFunctionHandle,
    direct_sum,
    evaluate,
    get_delta,
    operator_norm,
    random_interior_point,
    random_realization,
    similarity,
)

from conftest import random_matrix

# the largest defect over these 60 cases is 2.3e-16 (similarity) and 1.1e-16 (direct
# sum) on a 2-vCPU x86-64 VM with numpy 2.4; the bound leaves room for other LAPACK builds
AXIOM_TOL = 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.sampled_from(["polydisk:2", "ball:2", "cartan:2"]),
    st.integers(1, 2),
    st.integers(1, 2),
    st.integers(0, 2**32 - 1),
)
def test_evaluate_respects_direct_sums_and_similarities(grid, dim_e, n, seed):
    delta = get_delta(grid)
    h = NcFunctionHandle(random_realization(dim_e, delta.J, seed), delta)
    rng = np.random.default_rng(seed)
    x, y = (random_interior_point(delta, n, rng, margin=0.3) for _ in range(2))
    at_x, at_y = evaluate(h, x), evaluate(h, y)

    joint = evaluate(h, direct_sum(x, y))
    split = np.zeros((2 * n, 2 * n), dtype=np.complex128)
    split[:n, :n], split[n:, n:] = at_x.phi, at_y.phi
    assert operator_norm(joint.phi - split) <= AXIOM_TOL
    assert abs(joint.delta_norm - max(at_x.delta_norm, at_y.delta_norm)) <= AXIOM_TOL

    e = random_matrix(rng, n)
    s = np.eye(n) + 0.1 * e / max(1.0, operator_norm(e))
    conjugated = evaluate(h, similarity(x, s)).phi
    assert operator_norm(conjugated - np.linalg.solve(s, at_x.phi @ s)) <= AXIOM_TOL
