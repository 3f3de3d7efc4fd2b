"""The package names the benchmark's layer tracer looks up must exist.

``perfbench/trace.py`` rebinds each name in its ``TARGETS`` with ``getattr``;
a renamed function would first fail inside the benchmark, so Tier-1 checks
the names here, reading ``TARGETS`` as a literal without importing perfbench.
"""

import ast
import importlib
from pathlib import Path

TRACE_PY = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def _targets() -> dict:
    for node in ast.parse(TRACE_PY.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACE_PY}")


def test_every_traced_name_is_a_callable_of_its_module():
    targets = _targets()
    assert targets
    for module_name, names in targets.items():
        module = importlib.import_module(f"ncjulia.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"ncjulia.{module_name}.{name}"
    # the tracer's rebinding test reads eval_phi through boundary
    from ncjulia import boundary, realization

    assert boundary.eval_phi is realization.eval_phi
