"""End-to-end sweeps tying the modules together on random instances."""

import numpy as np
import pytest

from ncjulia import (
    MatrixTuple,
    NcFunctionHandle,
    analyze_bpoint,
    boundary_identity_residual,
    boundary_model,
    boundary_point,
    estimate_alpha,
    eta_numeric,
    evaluate,
    evaluate_sequence,
    extract_W,
    julia_inequality_check,
    operator_norm,
    polydisk_delta,
    random_interior_point,
    random_realization,
)
from ncjulia.domain import SEQUENCE_FIRST_STEP

from conftest import random_unitary_tuple


@pytest.mark.parametrize("d,dim_e,n,seed", [
    (1, 1, 2, 0),
    (2, 2, 1, 1),
    (2, 1, 2, 2),
    (3, 2, 2, 3),
])
def test_full_chain_random_instance(d, dim_e, n, seed):
    """alpha, W, u_T and the two boundary identities agree on one instance."""
    rng = np.random.default_rng(seed)
    delta = polydisk_delta(d)
    handle = NcFunctionHandle(
        realization=random_realization(dim_e, d, seed=7000 + seed), delta=delta
    )
    t = random_unitary_tuple(rng, d, n)

    est = estimate_alpha(evaluate_sequence(handle, t, None, 20, SEQUENCE_FIRST_STEP))
    assert est.converged and est.is_liminf

    bp = boundary_point(handle.delta, t)
    model = boundary_model(handle, bp)
    assert model.range_residual <= 1e-8
    assert abs(model.alpha_model - est.alpha) <= 1e-6

    w = extract_W(evaluate_sequence(handle, t, None, 20, SEQUENCE_FIRST_STEP)).W
    assert operator_norm(w.conj().T @ w - np.eye(n)) <= 1e-10

    for _ in range(25):
        z = random_interior_point(delta, n, rng, margin=0.05)
        ev = evaluate(handle, z)
        check = julia_inequality_check(ev, bp, w, est.alpha)
        assert check.skipped or check.holds
        assert boundary_identity_residual(model, w, ev) <= 1e-6

    direction = -1.0 * t
    res = eta_numeric(handle, t, w, direction)
    assert res.converged
    # scaling the inward ray scales the one-sided derivative (derivatives of
    # random colligations can be large, so measure relative to their size)
    half = eta_numeric(handle, t, w, 0.5 * direction)
    scale = max(1.0, operator_norm(res.eta))
    assert operator_norm(half.eta - 0.5 * res.eta) <= 1e-6 * scale


def test_report_is_self_consistent_on_random_instance():
    rng = np.random.default_rng(11)
    delta = polydisk_delta(2)
    handle = NcFunctionHandle(realization=random_realization(1, 2, seed=7100), delta=delta)
    t = random_unitary_tuple(rng, 2, 2)
    rep = analyze_bpoint(handle, t, num_steps=18, julia_samples=50, seed=5)
    assert rep.is_bpoint
    assert rep.julia.violations == 0
    assert abs(rep.range_test.model.alpha_model - rep.alpha.alpha) <= 1e-4
    assert rep.tfae.sup_model_norm_sq <= rep.tfae.sup_scalar_quotient * (1 + 1e-8)
    assert rep.julia.identity_max <= 1e-6


def test_result_types_are_exported():
    from ncjulia import BoundaryModel, JuliaSweep, boundary, get_fixture

    assert JuliaSweep is boundary.JuliaSweep
    assert BoundaryModel is boundary.BoundaryModel
    h1 = get_fixture("example-h1").handle
    t = MatrixTuple.from_scalars([1.0, 1.0])
    assert isinstance(boundary_model(h1, boundary_point(h1.delta, t)), BoundaryModel)
    assert isinstance(analyze_bpoint(h1, t, julia_samples=3).julia, JuliaSweep)
