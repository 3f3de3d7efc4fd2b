"""Tests of the benchmark itself: pinned counts, the correctness gate, the run contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import env

env.import_ncjulia()

import ncjulia as nc  # noqa: E402
from perfbench import gate, measure, run, trace, workloads  # noqa: E402

RUN_PY = Path(run.__file__).resolve()


def _traced(fn):
    tracer = trace.Tracer()
    tracer.install()
    try:
        tracer.run_op(fn)
    finally:
        tracer.remove()
    return {name: tracer.calls[i] for i, name in enumerate(tracer.names)}


def test_baseline_call_counts():
    h = nc.get_fixture("example-h1").handle
    t = nc.MatrixTuple.from_scalars([1.0, 1.0])
    calls = _traced(lambda: nc.analyze_bpoint(h, t, julia_samples=200, seed=1))
    assert calls["domain.eval_delta"] == 2693
    assert calls["realization.eval_phi"] == 436
    assert calls["freepoly.eval_poly"] == 10784
    assert calls["numerics.operator_norm"] == 2110
    assert calls["domain.generate_sequence"] == 4


def test_tracer_restores_every_binding():
    from ncjulia import boundary, realization

    original = realization.eval_phi
    tracer = trace.Tracer()
    assert tracer.install() > 0
    assert boundary.eval_phi is not original and realization.eval_phi is not original
    tracer.remove()
    assert boundary.eval_phi is original and realization.eval_phi is original
    assert nc.eval_phi is original


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_calls_repeat_exactly(name, capsys):
    argv = ["--workload", name, "--seed", "3", "--seconds", "0.01", "--trace", "1"]
    results = []
    for _ in range(2):
        assert run.main(argv) == 0
        results.append(_last_json(capsys))
    first, second = results
    assert first["correct"] and first["failed"] == 0
    calls = {k: v for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert len(calls) == sum(len(fs) for fs in trace.TARGETS.values())
    for key, metric in calls.items():
        assert metric["value"] == second["metrics"][key]["value"], key


def test_gate_counts_an_injected_fault(tmp_path, monkeypatch):
    """A perturbed (non-isometric) colligation substituted for one op must fail it."""
    original = workloads.realization.random_realization
    substituted = []

    def first_one_perturbed(dim_e, j, seed):
        colligation = original(dim_e, j, seed)
        if not substituted:
            substituted.append(seed)
            return nc.perturb_realization(colligation, eps=1e-3, seed=seed)
        return colligation

    monkeypatch.setattr(workloads.realization, "random_realization", first_one_perturbed)
    workload = workloads.WORKLOADS["eval-large-n"]
    pool = workload.pool(0, tmp_path)
    monkeypatch.undo()
    phase = measure.run_passes(pool, 0.0)
    failed, _, problems = gate.check_all(
        phase.results, gate.load_reference()[workload.name], workload.bounded
    )
    assert failed == 1 and failed / len(pool) > 0
    assert "model_residual" in problems[0]


def test_gate_tolerances():
    ref = {"exit_code": 0, "alpha": 1.25, "residual": 3e-16, "flag": True}
    ok = gate.check({"exit_code": 0, "alpha": 1.25 * (1 + 1e-12), "residual": 5e-14,
                     "flag": True}, ref, {})
    assert ok.ok and 0 < ok.max_rel_dev < gate.RTOL
    for bad in ({"alpha": 1.25 * (1 + 1e-6)}, {"exit_code": 1}, {"flag": 1},
                {"residual": 1e-8}):
        assert not gate.check({**ref, **bad}, ref, {}).ok, bad
    assert not gate.check({**ref, "extra": 1}, ref, {}).ok
    assert gate.check({**ref, "residual": 1.0}, ref, {"residual": 2.0}).ok
    assert not gate.check({**ref, "residual": 3.0}, ref, {"residual": 2.0}).ok


def test_every_catalog_entry_has_a_reference():
    reference = gate.load_reference()
    for name, workload in workloads.WORKLOADS.items():
        keys = {f"{s.name}/{i:02d}" for s in workload.strata for i in range(s.size)}
        assert keys == set(reference[name]), name


def test_pool_depends_only_on_seed(tmp_path):
    workload = workloads.WORKLOADS["derivative-ladders"]
    a = [op.key for op in workload.pool(5, tmp_path)]
    assert a == [op.key for op in workload.pool(5, tmp_path)]
    assert a != [op.key for op in workload.pool(6, tmp_path)]
    assert len(a) == sum(s.per_pool for s in workload.strata)


def test_refuses_to_run_without_the_package(tmp_path):
    """In a directory holding only the benchmark, the run fails without a result."""
    shutil.copytree(RUN_PY.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz-fresh", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "{" not in done.stdout

