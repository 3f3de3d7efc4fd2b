"""Timing: whole passes over a pool, with the machine's speed measured alongside.

Every pass runs the same ops, so a run that stops at a pass boundary keeps
the op mix of every other run.  Between ops, a fixed calibration slice of
interpreter and BLAS work is timed.  On a shared 2-vCPU Xeon VM the CPU
speed drifted by tens of percent over tens of seconds (a fixed Python
loop's 20 s means differed by up to 40 %), far more than a run can average
away and alike for every op.  Reported times are
therefore divided by the run's speed factor, the median slice time over
``REFERENCE_MS``: they are times at the reference speed.  The table also
prints the times as measured.
"""

from __future__ import annotations

import statistics
import time

import numpy as np


class Calibration:
    REFERENCE_MS = 5.0
    EVERY_S = 0.25

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.samples_ms = []
        self._last = 0.0

    def sample(self):
        t0 = time.perf_counter_ns()
        acc = 0
        for i in range(30000):
            acc += i * i
        for _ in range(12):
            np.linalg.solve(self._a, self._a)
        self.samples_ms.append((time.perf_counter_ns() - t0) / 1e6)
        self._last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self._last >= self.EVERY_S:
            self.sample()

    @property
    def factor(self) -> float:
        """Median slice time over its reference: > 1 when the machine runs slow."""
        return statistics.median(self.samples_ms) / self.REFERENCE_MS


class Phase:
    """Latencies, digests and machine-speed samples of one timed phase."""

    def __init__(self):
        self.latency_ns = []
        self.passes = 0
        self.results = []  # (op, digest)
        self.wall_s = 0.0
        self.calibration = Calibration()

    def measured_ops_per_s(self) -> float:
        """Completed ops over the time spent in them (digests and calibration excluded)."""
        return len(self.latency_ns) / (sum(self.latency_ns) / 1e9)

    def ops_per_s(self) -> float:
        return self.measured_ops_per_s() * self.calibration.factor

    def latency_ms(self) -> np.ndarray:
        return np.array(self.latency_ns) / 1e6 / self.calibration.factor


def run_passes(pool, seconds, min_ops=0, runner=lambda fn: fn()) -> Phase:
    """Whole passes until ``seconds`` have elapsed and ``min_ops`` ops were timed."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        for op in pool:
            phase.calibration.maybe_sample()
            t0 = time.perf_counter_ns()
            try:
                raw = runner(op.run)
            except Exception as exc:  # an op that raises fails the gate; the run goes on
                raw = exc
            phase.latency_ns.append(time.perf_counter_ns() - t0)
            phase.results.append((op, digest_of(op, raw)))
        phase.passes += 1
        phase.wall_s = time.perf_counter() - start
        if phase.wall_s >= seconds and len(phase.latency_ns) >= min_ops:
            return phase


def digest_of(op, raw) -> dict:
    """The op's digest; an op that raised, or whose output cannot be read, fails the gate."""
    if not isinstance(raw, Exception):
        try:
            return op.digest(raw)
        except Exception as exc:
            raw = exc
    return {"exception": f"{type(raw).__name__}: {raw}"}
