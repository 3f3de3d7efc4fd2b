"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to calibration.
"""

import json
import time

import numpy as np
import pytest

from ncjulia import (
    DeltaMatrix,
    MatrixTuple,
    NcFunctionHandle,
    boundary_point,
    delta_derivative,
    estimate_alpha,
    eta_numeric,
    eval_delta,
    eval_phi,
    eval_poly,
    evaluate,
    evaluate_sequence,
    example_eta,
    example_phi_closed,
    example_psi,
    format_poly,
    get_fixture,
    haar_unitary,
    homogeneity_check,
    in_G_delta,
    julia_inequality_check,
    model_residual,
    operator_norm,
    parse_poly,
    perturb_realization,
    polydisk_delta,
    random_interior_point,
    random_realization,
    boundary_model,
    boundary_identity_residual,
    tfae_report,
)
from ncjulia.domain import SEQUENCE_FIRST_STEP
from ncjulia.cli import main as cli_main

from conftest import (
    near_identity,
    random_admissible_direction,
    random_poly,
    random_tuple,
    random_unitary_tuple,
)
from oracles import direct_sum, eval_phi_neumann, similarity


def check(criterion, ok, detail=""):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{criterion} failed: {detail}"


@pytest.fixture(scope="module")
def h1():
    return get_fixture("example-h1").handle


def test_criterion_01_psi_counterexample():
    z = MatrixTuple(
        (np.diag([1.0, -1.0]).astype(complex), np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
    )
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        psi = example_psi(z)
        norm = operator_norm(psi)
        best = min(best, time.perf_counter() - start)
    exact = bool(np.array_equal(psi, np.array([[2.0, 1.0], [1.0, 0.0]], dtype=complex)))
    norm_ok = abs(norm - (1.0 + np.sqrt(2.0))) <= 1e-12
    check(
        "01 psi-counterexample",
        exact and norm_ok and best < 1e-3,
        f"exact={exact} |norm-(1+sqrt2)|={abs(norm - 1 - np.sqrt(2)):.2e} time={best * 1e3:.3f}ms",
    )


def test_criterion_02_diagonal_julia_quotient(h1):
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        t = MatrixTuple((np.eye(n),) * 2)
        est = estimate_alpha(evaluate_sequence(h1, t, None, 10, SEQUENCE_FIRST_STEP))
        worst = max(worst, abs(est.alpha - 1.0))
    elapsed = time.perf_counter() - start
    check(
        "02 radial-quotient-limit",
        worst <= 1e-8 and elapsed < 0.1,
        f"max|alpha-1|={worst:.2e} time={elapsed * 1e3:.1f}ms",
    )


def test_criterion_03_three_way_oracle(h1):
    rng = np.random.default_rng(301)
    start = time.perf_counter()
    worst_closed = worst_series = 0.0
    for n in (1, 2, 4):
        for _ in range(200):
            x = random_tuple(rng, 2, n, max_norm=0.9)
            direct = eval_phi(h1, x)
            closed = example_phi_closed(x)
            series = eval_phi_neumann(h1, x, terms=300)
            worst_closed = max(worst_closed, operator_norm(direct - closed))
            excess = operator_norm(direct - series.value) - series.truncation_bound
            worst_series = max(worst_series, excess)
    elapsed = time.perf_counter() - start
    check(
        "03 three-way-oracle",
        worst_closed <= 1e-9 and worst_series <= 1e-10 and elapsed < 10.0,
        f"closed={worst_closed:.2e} series-excess={worst_series:.2e} time={elapsed:.1f}s",
    )


def test_criterion_04_model_identity_sweep():
    rng = np.random.default_rng(401)
    start = time.perf_counter()
    worst = 0.0
    for k in range(1000):
        d = int(rng.integers(1, 4))
        dim_e = int(rng.integers(1, 3))
        n = int(rng.integers(1, 3))
        delta = polydisk_delta(d)
        r = random_realization(dim_e, d, seed=4000 + k)
        handle = NcFunctionHandle(realization=r, delta=delta)
        x = random_interior_point(delta, n, rng, margin=0.05)
        worst = max(worst, model_residual(handle, x, x))
    # negative control: breaking the isometry must break the identity
    delta = polydisk_delta(2)
    broken = perturb_realization(random_realization(1, 2, seed=5), eps=0.05, seed=5)
    handle = NcFunctionHandle(realization=broken, delta=delta)
    xneg = random_interior_point(delta, 2, rng, margin=0.05)
    negative = model_residual(handle, xneg, xneg)
    elapsed = time.perf_counter() - start
    check(
        "04 model-identity",
        worst <= 1e-9 and negative > 1e-3 and elapsed < 30.0,
        f"max-residual={worst:.2e} negative-control={negative:.2e} time={elapsed:.1f}s",
    )


def test_criterion_05_julia_inequality(h1):
    rng = np.random.default_rng(501)
    bp = boundary_point(h1.delta, MatrixTuple((np.eye(2),) * 2))
    w = np.eye(2)
    violations = skipped = 0
    for _ in range(1000):
        z = random_tuple(rng, 2, 2, max_norm=0.95)
        result = julia_inequality_check(evaluate(h1, z), bp, w, 1.0)
        if result.skipped:
            skipped += 1
        elif not result.holds:
            violations += 1
    # equality when both components coincide: scalars and scaled unitaries
    worst_eq = 0.0
    bp1 = boundary_point(h1.delta, MatrixTuple((np.eye(1),) * 2))
    for _ in range(25):
        z = complex(*rng.uniform(-0.65, 0.65, 2))
        result = julia_inequality_check(
            evaluate(h1, MatrixTuple.from_scalars([z, z])), bp1, np.eye(1), 1.0
        )
        worst_eq = max(worst_eq, abs(result.lhs - result.rhs))
    for _ in range(25):
        c = rng.uniform(0.2, 0.9) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        u = c * haar_unitary(2, rng)
        result = julia_inequality_check(evaluate(h1, MatrixTuple((u, u))), bp, w, 1.0)
        worst_eq = max(worst_eq, abs(result.lhs - result.rhs))
    check(
        "05 julia-inequality",
        violations == 0 and skipped == 0 and worst_eq <= 1e-10,
        f"violations={violations} skipped={skipped} max-equality-gap={worst_eq:.2e}",
    )


def test_criterion_06_boundary_model_vector(h1):
    t = MatrixTuple.from_scalars([1.0, 1.0])
    bp = boundary_point(h1.delta, t)
    model = boundary_model(h1, bp)
    target = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    u_err = operator_norm(model.u_T - target)
    alpha = estimate_alpha(evaluate_sequence(h1, t, None, 12, SEQUENCE_FIRST_STEP)).alpha
    norm_gap = abs(model.alpha_model - alpha)
    rng = np.random.default_rng(601)
    worst_identity = 0.0
    for _ in range(100):
        z = random_interior_point(h1.delta, 1, rng, margin=0.05)
        worst_identity = max(
            worst_identity, boundary_identity_residual(model, np.eye(1), evaluate(h1, z))
        )
    check(
        "06 boundary-model-vector",
        u_err <= 1e-10
        and model.range_residual <= 1e-10
        and norm_gap <= 1e-6
        and worst_identity <= 1e-8,
        f"|u_T-target|={u_err:.2e} residual={model.range_residual:.2e} "
        f"|norm^2-alpha|={norm_gap:.2e} identity={worst_identity:.2e}",
    )


def test_criterion_07_directional_derivative(h1):
    rng = np.random.default_rng(701)
    worst_closed = worst_hom = worst_ladder = 0.0
    for n in (1, 2, 3):
        t = MatrixTuple((np.eye(n),) * 2)
        w = np.eye(n)
        for _ in range(100):
            direction = random_admissible_direction(rng, n)
            res = eta_numeric(h1, t, w, direction)
            oracle = example_eta(direction)
            scale = max(1.0, operator_norm(oracle))
            worst_closed = max(worst_closed, operator_norm(res.eta - oracle) / scale)
            for s in (0.3, 0.5, 1.0):
                worst_hom = max(worst_hom, homogeneity_check(h1, t, w, res, s))
            other = eta_numeric(h1, t, w, direction, first_step=1e-2 / 3.0)
            worst_ladder = max(worst_ladder, operator_norm(res.eta - other.eta))
    check(
        "07 directional-derivative",
        worst_closed <= 1e-6 and worst_hom <= 1e-6 and worst_ladder <= 1e-6,
        f"closed={worst_closed:.2e} homogeneity={worst_hom:.2e} ladder={worst_ladder:.2e}",
    )


def test_criterion_08_nc_axiom_suite(h1):
    rng = np.random.default_rng(801)
    worst = {"poly-sum": 0.0, "poly-sim": 0.0, "delta-sum": 0.0, "delta-sim": 0.0,
             "phi-sum": 0.0, "phi-sim": 0.0}

    for _ in range(200):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        p = random_poly(rng, d)
        x, y = random_tuple(rng, d, n), random_tuple(rng, d, n)
        joint = eval_poly(p, direct_sum(x, y))
        split = np.zeros_like(joint)
        split[:n, :n] = eval_poly(p, x)
        split[n:, n:] = eval_poly(p, y)
        worst["poly-sum"] = max(worst["poly-sum"], operator_norm(joint - split))
        s = near_identity(rng, n, 0.2)
        lhs = eval_poly(p, similarity(x, s))
        rhs = np.linalg.solve(s, eval_poly(p, x) @ s)
        scale = max(1.0, operator_norm(rhs))
        worst["poly-sim"] = max(worst["poly-sim"], operator_norm(lhs - rhs) / scale)

    for _ in range(200):
        d, n = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        grid = [[random_poly(rng, d, 3, 3) for _ in range(2)] for _ in range(2)]
        delta = DeltaMatrix(d, grid)
        x, y = random_tuple(rng, d, n), random_tuple(rng, d, n)
        lhs_norm = operator_norm(eval_delta(delta, direct_sum(x, y)))
        rhs_norm = max(operator_norm(eval_delta(delta, x)), operator_norm(eval_delta(delta, y)))
        worst["delta-sum"] = max(worst["delta-sum"], abs(lhs_norm - rhs_norm))
        s = near_identity(rng, n, 0.2)
        lhs = eval_delta(delta, similarity(x, s))
        sj = np.kron(np.eye(delta.J), s)
        rhs = np.linalg.solve(sj, eval_delta(delta, x) @ sj)
        scale = max(1.0, operator_norm(rhs))
        worst["delta-sim"] = max(worst["delta-sim"], operator_norm(lhs - rhs) / scale)

    done = 0
    while done < 200:
        n = int(rng.integers(1, 3))
        x = random_interior_point(h1.delta, n, rng, margin=0.3)
        y = random_interior_point(h1.delta, n, rng, margin=0.3)
        joint = eval_phi(h1, direct_sum(x, y))
        split = np.zeros_like(joint)
        split[:n, :n] = eval_phi(h1, x)
        split[n:, n:] = eval_phi(h1, y)
        worst["phi-sum"] = max(worst["phi-sum"], operator_norm(joint - split))
        s = near_identity(rng, n, 0.1)
        xs = similarity(x, s)
        if not in_G_delta(h1.delta, xs):
            continue
        lhs = eval_phi(h1, xs)
        rhs = np.linalg.solve(s, eval_phi(h1, x) @ s)
        worst["phi-sim"] = max(worst["phi-sim"], operator_norm(lhs - rhs))
        done += 1

    bad = {k: v for k, v in worst.items() if v > 1e-8}
    check(
        "08 nc-axioms",
        not bad,
        " ".join(f"{k}={v:.2e}" for k, v in worst.items()),
    )


def test_criterion_09_derivative_vs_finite_difference():
    rng = np.random.default_rng(901)
    step = 1e-5
    worst = 0.0
    for _ in range(200):
        d, n = int(rng.integers(1, 4)), int(rng.integers(1, 3))
        rows = int(rng.integers(1, 3))
        grid = [[random_poly(rng, d, 4, 4) for _ in range(rows)] for _ in range(rows)]
        delta = DeltaMatrix(d, grid)
        t = random_tuple(rng, d, n, max_norm=1.0)
        h = random_tuple(rng, d, n, max_norm=1.0)
        analytic = delta_derivative(delta, t, h)
        plus = eval_delta(delta, t + step * h)
        minus = eval_delta(delta, t + (-step) * h)
        fd = (plus - minus) / (2 * step)
        scale = max(1.0, operator_norm(analytic))
        worst = max(worst, operator_norm(analytic - fd) / scale)
    check("09 derivative-vs-fd", worst <= 1e-6, f"max-rel-err={worst:.2e}")


def test_criterion_10_parser_round_trip(tmp_path):
    rng = np.random.default_rng(1001)
    failures = 0
    for _ in range(1000):
        d = int(rng.integers(1, 4))
        p = random_poly(rng, d)
        if parse_poly(format_poly(p), d) != p:
            failures += 1
    codes = []
    for bad in ("x5", "x0 + * x1", "x0^-1"):
        delta_file = tmp_path / "delta.json"
        delta_file.write_text(json.dumps({"d": 2, "entries": [[bad, "0"], ["0", "x1"]]}))
        point_file = tmp_path / "pt.json"
        point_file.write_text(json.dumps({"scalars": [[0.1, 0], [0.1, 0]]}))
        codes.append(
            cli_main([
                "eval", "--delta", str(delta_file), "--realization", "example-h1",
                "--point", str(point_file),
            ])
        )
    check(
        "10 parser",
        failures == 0 and codes == [2, 2, 2],
        f"round-trip-failures={failures} error-exit-codes={codes}",
    )


def test_criterion_11_tfae_comparability(h1):
    rng = np.random.default_rng(1101)
    cases = []
    for n in (1, 2):
        cases.append((h1, MatrixTuple((np.eye(n),) * 2)))
    delta = polydisk_delta(2)
    for k in range(3):
        handle = NcFunctionHandle(
            realization=random_realization(1 + k % 2, 2, seed=1100 + k), delta=delta
        )
        cases.append((handle, random_unitary_tuple(rng, 2, int(rng.integers(1, 3)))))
    eps = 1e-8
    ok = True
    details = []
    for handle, t in cases:
        rep = tfae_report(
            evaluate_sequence(handle, t, None, 12, SEQUENCE_FIRST_STEP),
            boundary_point(handle.delta, t),
        )
        c = rep.aperture
        two_sided = (
            rep.sup_gram_quotient <= rep.sup_scalar_quotient * (1 + eps) + 1e-15
            and rep.sup_scalar_quotient <= (2 * c + eps) * rep.sup_gram_quotient
        )
        iii_iff_i = (
            rep.sup_gram_quotient <= rep.sup_model_norm_sq * (1 + eps) + 1e-15
            and rep.sup_model_norm_sq <= (2 * c + eps) * rep.sup_gram_quotient
        )
        ok = ok and two_sided and iii_iff_i
        details.append(
            f"(i)={rep.sup_gram_quotient:.3f} (ii)={rep.sup_scalar_quotient:.3f} "
            f"(iii)={rep.sup_model_norm_sq:.3f} c={c:.3f}"
        )
    check("11 tfae-comparability", ok, "; ".join(details))
