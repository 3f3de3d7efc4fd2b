"""The package names and call forms the benchmark uses must exist and bind.

``perfbench/trace.py`` rebinds each name in its ``TARGETS`` with ``getattr``,
``perfbench/workloads.py`` calls package functions by module and
``perfbench/test_perfbench.py`` calls them through ``import ncjulia as nc``;
a renamed function or a changed signature would first fail inside the
benchmark, so Tier-1 checks all three here, reading the files with ``ast``
without importing perfbench.
"""

import ast
import importlib
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACE_PY = PERFBENCH / "trace.py"
WORKLOADS_PY = PERFBENCH / "workloads.py"
TEST_PERFBENCH_PY = PERFBENCH / "test_perfbench.py"
# the package modules workloads.py imports and calls into
WORKLOAD_MODULES = (
    "cli", "derivative", "domain", "fixtures", "freepoly", "numerics", "realization"
)


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


def test_every_workload_call_binds_to_its_signature():
    calls = [
        node
        for node in ast.walk(ast.parse(WORKLOADS_PY.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id in WORKLOAD_MODULES
    ]
    assert len(calls) >= 32
    for call in calls:
        where = f"{WORKLOADS_PY.name}:{call.lineno} {call.func.value.id}.{call.func.attr}"
        module = importlib.import_module(f"ncjulia.{call.func.value.id}")
        _assert_binds(getattr(module, call.func.attr, None), call, where)


def test_every_perfbench_test_call_binds_to_its_signature():
    import ncjulia

    found = []
    for node in ast.walk(ast.parse(TEST_PERFBENCH_PY.read_text())):
        # calls nc.f(...) and nc.C.f(...): an attribute chain from the package alias
        chain, value = [], node.func if isinstance(node, ast.Call) else None
        while isinstance(value, ast.Attribute):
            chain.insert(0, value.attr)
            value = value.value
        if not (chain and isinstance(value, ast.Name) and value.id == "nc"):
            continue
        target = ncjulia
        for name in chain:
            target = getattr(target, name, None)
        where = f"{TEST_PERFBENCH_PY.name}:{node.lineno} nc.{'.'.join(chain)}"
        _assert_binds(target, node, where)
        found.append(".".join(chain))
    expected = {"perturb_realization", "analyze_bpoint", "get_fixture", "MatrixTuple.from_scalars"}
    assert expected <= set(found)


def _assert_binds(target, call: ast.Call, where: str):
    """The call's positional count and keyword names bind to the signature of target."""
    assert not any(isinstance(a, ast.Starred) for a in call.args), where
    assert all(k.arg is not None for k in call.keywords), where
    assert callable(target), where
    try:
        inspect.signature(target).bind(
            *[None] * len(call.args), **{k.arg: None for k in call.keywords}
        )
    except TypeError as exc:
        raise AssertionError(f"{where}: {exc}") from None
