"""Gate every benchmark catalog op, not only a seed's pool, against the reference.

    python3 .github/catalog_gate.py

Runs each workload's whole catalog once, digests every op and checks the
digests with ``perfbench.gate.check_all`` against ``perfbench/reference.json``.
Exits 1 if any op failed (an op that raises fails too), 0 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import env  # noqa: E402  (before numpy: it pins BLAS to one thread)


def main() -> int:
    env.import_ncjulia()
    from perfbench import gate, measure, workloads

    reference = gate.load_reference()
    failed_ops = 0
    workdir = Path(tempfile.mkdtemp(prefix="catalog-gate-"))
    try:
        for name, workload in workloads.WORKLOADS.items():
            results = measure.run_passes(workload.catalog(workdir), 0.0).results
            failed, worst, problems = gate.check_all(results, reference[name], workload.bounded)
            print(f"{name}: {len(results)} ops, {failed} failed, max_rel_dev {worst:.3g}")
            for problem in problems:
                print(f"  {problem}")
            failed_ops += failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 1 if failed_ops else 0


if __name__ == "__main__":
    sys.exit(main())
