"""Correctness gate: every op's digest against the committed seed reference.

Verdicts, exit codes, counts, flags and shapes must match exactly.  Floats
must agree with the 17-digit reference to a relative tolerance of ``RTOL``;
values below ``ATOL`` in magnitude (residuals at roundoff level) only need
to stay below it.  Fields a workload lists as bounded are checked against
their limit instead of the reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

RTOL = 1e-9
ATOL = 1e-10
REFERENCE = Path(__file__).with_name("reference.json")


def load_reference(path: Path = REFERENCE) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["workloads"]


@dataclass
class Verdict:
    ok: bool = True
    max_rel_dev: float = 0.0
    problems: list = field(default_factory=list)

    def fail(self, message: str):
        self.ok = False
        self.problems.append(message)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check(digest: dict, reference: dict | None, bounded: dict) -> Verdict:
    """Compare one op's digest with its reference entry."""
    verdict = Verdict()
    if reference is None:
        verdict.fail("no reference entry")
        return verdict
    if set(digest) != set(reference):
        missing = sorted(set(reference) - set(digest))[:3]
        extra = sorted(set(digest) - set(reference))[:3]
        verdict.fail(f"fields differ: missing {missing}, unexpected {extra}")
        return verdict
    for key, ref in reference.items():
        value = digest[key]
        if key in bounded:
            if not (_is_number(value) and value <= bounded[key]):
                verdict.fail(f"{key} = {value!r} exceeds {bounded[key]:g}")
        elif isinstance(ref, float) or isinstance(value, float):
            if not (_is_number(ref) and _is_number(value)):
                verdict.fail(f"{key}: {value!r} != {ref!r}")
                continue
            diff = abs(value - ref)
            scale = max(abs(value), abs(ref))
            if math.isnan(diff) or (diff > ATOL and diff > RTOL * scale):
                verdict.fail(f"{key}: {value!r} != {ref!r}")
            if scale > ATOL and not math.isnan(diff):
                verdict.max_rel_dev = max(verdict.max_rel_dev, diff / scale)
        elif value != ref or type(value) is not type(ref):
            verdict.fail(f"{key}: {value!r} != {ref!r}")
    return verdict


def check_all(results: list, reference: dict, bounded: dict):
    """Gate ``(op, digest)`` pairs: failed count, largest deviation, messages."""
    failed, worst, problems = 0, 0.0, []
    for op, digest in results:
        verdict = check(digest, reference.get(op.key), bounded)
        worst = max(worst, verdict.max_rel_dev)
        if not verdict.ok:
            failed += 1
            problems.append(f"{op.key}: {'; '.join(verdict.problems[:2])}")
    return failed, worst, problems
