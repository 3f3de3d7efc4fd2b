"""Regenerate ``reference.json``: every catalog op's digest at this commit.

    python3 perfbench/make_reference.py

The reference pins the package's outputs for every input any ``--seed`` can
draw.  Regenerate it only when a change to the outputs is intended, and say
which fields moved and why.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402


def main() -> int:
    env.import_ncjulia()
    from perfbench import gate, workloads

    out = {"workloads": {}}
    workdir = Path(tempfile.mkdtemp(prefix="reference-"))
    try:
        for name, workload in workloads.WORKLOADS.items():
            entries = {}
            for op in workload.catalog(workdir):
                entries[op.key] = op.digest(op.run())
            out["workloads"][name] = entries
            print(f"{name}: {len(entries)} entries", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    gate.REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
