"""Layer tracer: wraps the public functions of each ncjulia module from outside.

Installing the tracer rebinds every name, in every ``ncjulia`` module, that
refers to a traced function, so calls made through ``from .x import f``
imports and through module attributes are both seen.  Each call records a
span (name, parent span, op, start, end) in flat arrays; self time is the
span's duration minus that of its direct children, accumulated as spans
close.  Removing the tracer restores the original bindings, so untraced
phases run the package unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from pathlib import Path
from time import perf_counter_ns

import numpy as np

# module -> traced public functions; these modules are the benchmark's layers
TARGETS = {
    "freepoly": ("eval_poly",),
    "numerics": ("operator_norm", "extrapolate_limit", "min_norm_solve", "nearest_unitary"),
    "domain": (
        "eval_delta",
        "in_G_delta",
        "random_interior_point",
        "generate_sequence",
        "find_transverse_direction",
    ),
    "realization": ("eval_phi", "eval_u", "model_residual", "random_realization"),
    "boundary": (
        "analyze_bpoint",
        "estimate_alpha",
        "extract_W",
        "is_bpoint_range_test",
        "julia_inequality_check",
        "boundary_identity_residual",
        "tfae_report",
    ),
    "derivative": ("eta_numeric", "homogeneity_check"),
    "cli": ("main", "emit"),
}

ROOT_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.names = [ROOT_SPAN] + [f"{m}.{f}" for m, fs in TARGETS.items() for f in fs]
        self.calls = [0] * len(self.names)
        self.self_ns = [0] * len(self.names)
        self.parent = array("i")
        self.name = array("h")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.ops = 0
        self._stack = []  # open spans: [span id, child ns]
        self._restore = []

    def _enter(self, nid: int) -> list:
        sid = len(self.name)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.name.append(nid)
        self.op.append(self.ops)
        self.start.append(0)
        self.end.append(0)
        frame = [sid, 0]
        self._stack.append(frame)
        return frame

    def _exit(self, nid: int, frame: list, start: int, end: int):
        self._stack.pop()
        sid, child_ns = frame
        self.start[sid] = start
        self.end[sid] = end
        duration = end - start
        self.calls[nid] += 1
        self.self_ns[nid] += duration - child_ns
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, nid: int, fn):
        enter, leave = self._enter, self._exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = enter(nid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                leave(nid, frame, start, perf_counter_ns())

        return traced

    def run_op(self, fn):
        """Run one op under the root span; its spans share one op id."""
        frame = self._enter(0)
        start = perf_counter_ns()
        try:
            return fn()
        finally:
            self._exit(0, frame, start, perf_counter_ns())
            self.ops += 1

    def install(self) -> int:
        """Rebind every traced function in every ncjulia module; returns the site count."""
        modules = [m for name, m in sys.modules.items() if name == "ncjulia" or name.startswith("ncjulia.")]
        for mod_name, funcs in TARGETS.items():
            home = importlib.import_module(f"ncjulia.{mod_name}")
            for func in funcs:
                original = getattr(home, func)
                traced = self._wrap(self.names.index(f"{mod_name}.{func}"), original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, traced)
                            self._restore.append((module, attr, original))
        return len(self._restore)

    def remove(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def per_op(self, speed_factor: float = 1.0) -> dict:
        """Calls and self time per op for every traced function and module.

        Self times are divided by ``speed_factor``, the run's machine speed
        factor, to put them on the same footing as the end-to-end times."""
        ops = max(1, self.ops)
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = self.calls[nid] / ops
            out[f"{name}.self_ms"] = self.self_ns[nid] / ops / 1e6 / speed_factor
        for mod_name, funcs in TARGETS.items():
            out[f"{mod_name}.self_ms"] = sum(out[f"{mod_name}.{f}.self_ms"] for f in funcs)
        return out

    def write(self, path: Path):
        """Write every span to an ``.npz`` file (times in ns from perf_counter)."""
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )
