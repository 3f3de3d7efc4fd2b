"""Run one ncjulia benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bpoint-small-n --seed 1 --seconds 20 --trace 0

Each workload is a closed loop: one client in this process sends the next
op when the previous one returns.  A run

1. measures ``setup_s`` as the median over fresh interpreters of the time
   from interpreter start to the end of the first (cold) op (untraced runs);
2. builds the seeded pool and runs one discarded warm-up pass;
3. runs whole passes over the pool until ``--seconds`` have elapsed and at
   least ``MIN_OPS`` ops were timed, so every run has the same op mix;
4. checks every timed op's output against the committed seed reference.

Times are reported at the reference machine speed (see ``measure.py``);
the table also prints them as measured.

With ``--trace 1`` the timed phase is split: untraced passes for half the
time, then traced passes for the other half.  The traced passes give the
per-layer metrics, the spans file under ``perfbench/out`` and the tracing
overhead.  The last line of stdout is one JSON object with the result.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402  (pins BLAS threads before numpy loads)

import numpy as np  # noqa: E402

from perfbench import gate, measure, trace  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
MIN_OPS = 100  # so that at least 10 timed ops lie beyond the 90th percentile
SETUP_PROBES = 5
SETUP_CALIBRATION_SLICES = 9
PROBE_TIMEOUT_S = 120

# per-layer times reported in the JSON: the layers every workload exercises
# (the printed table lists every traced function and module)
JSON_LAYER_TIMES = (
    "freepoly.eval_poly.self_ms",
    "numerics.operator_norm.self_ms",
    "domain.eval_delta.self_ms",
    "domain.in_G_delta.self_ms",
    "realization.eval_phi.self_ms",
    "freepoly.self_ms",
    "numerics.self_ms",
    "domain.self_ms",
    "realization.self_ms",
)
RATIOS = ("domain.eval_delta.per_phi", "fuzz.julia_sweep_yield", "trace.overhead_ratio")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe-t0", type=float, default=None, help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def probe_setup(args) -> int:
    """Child side of a setup_s sample: import, build the pool, run the first op cold."""
    from perfbench import workloads

    workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=OUT))
    try:
        workload = workloads.WORKLOADS[args.workload]
        pool = workload.pool(args.seed, workdir)
        # the cold op always comes from the first stratum, so its cost does not
        # depend on where the seeded shuffle put the cheap ops
        first = workload.strata[0].name + "/"
        next(op for op in pool if op.key.startswith(first)).run()
        elapsed = time.time() - args.probe_t0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calibration = measure.Calibration()
    for _ in range(SETUP_CALIBRATION_SLICES):
        calibration.sample()
    print(repr(elapsed / calibration.factor))
    return 0


def measure_setup(args) -> list:
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--probe-t0", repr(time.time()),
        ]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-500:]}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def latency_metrics(phase) -> dict:
    lat_ms = phase.latency_ms()
    return {
        "ops_per_s": (phase.ops_per_s(), "ops/s"),
        "latency_p50_ms": (float(np.percentile(lat_ms, 50)), "ms"),
        "latency_p90_ms": (float(np.percentile(lat_ms, 90)), "ms"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        env.import_ncjulia()
    except env.MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from perfbench import workloads  # builds inputs with the package just imported

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.probe_t0 is not None:
        return probe_setup(args)

    workload = workloads.WORKLOADS[args.workload]
    setup_samples = [] if args.trace else measure_setup(args)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        pool = workload.pool(args.seed, workdir)
        measure.run_passes(pool, 0.0)  # discarded warm-up pass
        if args.trace:
            untraced = measure.run_passes(pool, args.seconds / 2)
            tracer = trace.Tracer()
            sites = tracer.install()
            try:
                traced = measure.run_passes(pool, args.seconds / 2, runner=tracer.run_op)
            finally:
                tracer.remove()
            phases = [untraced, traced]
        else:
            timed = measure.run_passes(pool, args.seconds, min_ops=MIN_OPS)
            phases = [timed]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # loaded only now, so its objects do not sit in the heap the timed ops collect
    reference = gate.load_reference()[workload.name]
    results = [r for phase in phases for r in phase.results]
    attempted = len(results)
    failed, worst, problems = gate.check_all(results, reference, workload.bounded)

    lines = [
        f"workload {workload.name}  seed {args.seed}  pool {len(pool)} ops  "
        f"closed loop, 1 client, 1 process",
        "environment " + " ".join(f"{k}={v}" for k, v in env.describe().items()),
        f"correctness failed_ratio {failed / attempted:.6g} ({failed}/{attempted} ops)  "
        f"max_rel_dev {worst:.3g} (rtol {gate.RTOL:g}, atol {gate.ATOL:g})",
    ]
    lines += [f"  FAIL {p}" for p in problems[:10]]
    if args.trace:
        more, metrics = layer_report(args, untraced, traced, tracer, sites)
    else:
        more, metrics = end_to_end_report(timed, setup_samples)
    print("\n".join(lines + more))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def end_to_end_report(timed, setup_samples: list):
    metrics = latency_metrics(timed)
    metrics["setup_s"] = (statistics.median(setup_samples), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    cal = timed.calibration
    measured_ms = np.array(timed.latency_ns) / 1e6
    lines = [
        f"timed {len(timed.latency_ns)} ops (latency samples) in {timed.passes} passes, "
        f"{timed.wall_s:.3f} s",
        f"machine speed factor {cal.factor:.4f} (median of {len(cal.samples_ms)} calibration "
        f"slices / {cal.REFERENCE_MS:g} ms); as measured: ops_per_s "
        f"{timed.measured_ops_per_s():.6g}, latency p50 {np.percentile(measured_ms, 50):.6g} ms, "
        f"p90 {np.percentile(measured_ms, 90):.6g} ms",
        "setup samples (reference speed) " + ", ".join(f"{s:.4f}" for s in setup_samples) + " s",
    ]
    lines += [f"  {name:<16}{value:>14.6g} {unit}" for name, (value, unit) in metrics.items()]
    return lines, metrics


def layer_report(args, untraced, traced, tracer, sites: int):
    workload_name = args.workload
    layers = tracer.per_op(traced.calibration.factor)
    phi_calls = layers["realization.eval_phi.calls"]
    layers["domain.eval_delta.per_phi"] = (
        layers["domain.eval_delta.calls"] / phi_calls if phi_calls else 0.0)
    layers["fuzz.julia_sweep_yield"] = julia_sweep_yield(workload_name, traced, tracer)
    layers["trace.overhead_ratio"] = traced.ops_per_s() / untraced.ops_per_s()
    spans = OUT / f"spans-{workload_name}-seed{args.seed}.npz"
    tracer.write(spans)
    lines = [
        f"traced {len(traced.latency_ns)} ops, {len(tracer.name)} spans, {sites} rebound names "
        f"-> {spans.relative_to(env.ROOT)}",
        f"untraced {untraced.ops_per_s():.4g} ops/s, traced {traced.ops_per_s():.4g} ops/s "
        f"(self_ms and ops/s at reference speed, factor {traced.calibration.factor:.4f})",
        f"{'layer (per op)':<44}{'calls':>12}{'self_ms':>12}",
    ]
    for mod_name, funcs in trace.TARGETS.items():
        for func in funcs:
            name = f"{mod_name}.{func}"
            lines.append(f"  {name:<42}{layers[name + '.calls']:>12.6g}"
                         f"{layers[name + '.self_ms']:>12.4f}")
        lines.append(f"{mod_name + ' (module)':<44}{'':>12}{layers[mod_name + '.self_ms']:>12.4f}")
    lines.append(f"{'outside traced functions':<44}{'':>12}"
                 f"{layers[trace.ROOT_SPAN + '.self_ms']:>12.4f}")
    lines += [f"{name:<44}{layers[name]:>12.6g}" for name in RATIOS]
    metrics = {f"{m}.{f}.calls": (layers[f"{m}.{f}.calls"], "count")
               for m, fs in trace.TARGETS.items() for f in fs}
    metrics.update({k: (layers[k], "ms") for k in JSON_LAYER_TIMES})
    metrics.update({k: (layers[k], "1") for k in RATIOS})
    return lines, metrics


def julia_sweep_yield(workload_name: str, phase, tracer) -> float:
    """Fuzz Julia sub-sweeps that reached the inequality checks / sub-sweeps attempted.

    Every attempted sub-sweep calls ``estimate_alpha`` once; one that reaches
    the checks adds exactly five to checked + skipped in the fuzz JSON.
    """
    if workload_name != "fuzz-fresh":
        return 0.0
    attempted = tracer.calls[tracer.names.index("boundary.estimate_alpha")]
    reached = sum(
        (d.get("julia_inequality.checked", 0) + d.get("julia_inequality.skipped", 0)) / 5
        for _, d in phase.results
    )
    return reached / attempted if attempted else 0.0


if __name__ == "__main__":
    sys.exit(main())
