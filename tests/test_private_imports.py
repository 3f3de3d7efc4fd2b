"""Ratchet on private names that one package module reads from another.

Each module of ``src/ncjulia`` should call the others through public names
only.  The reads that remain are pinned below; a new one fails this test,
and a removed one must be dropped from the list, so the list can only
shrink.
"""

import ast
from pathlib import Path

import ncjulia

# (reading module, module read from, private name)
ALLOWED = {
    ("boundary", "realization", "_model_operators"),
    ("derivative", "domain", "_cone_matrix"),
    ("domain", "freepoly", "_eval_words"),
    ("domain", "numerics", "_json_int"),
    ("freepoly", "numerics", "_json_complex"),
    ("freepoly", "numerics", "_json_int"),
    ("realization", "numerics", "_json_int"),
}


def private_reads() -> set:
    """Every ``from .m import _name`` and ``m._name`` read of a package module m."""
    found = set()
    for path in sorted(Path(ncjulia.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = set()  # package modules bound by ``from . import m``
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules.add(alias.asname or alias.name)
                    elif alias.name.startswith("_"):
                        found.add((path.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and isinstance(node.value, ast.Name) and node.value.id in modules
            ):
                found.add((path.stem, node.value.id, node.attr))
    return found


def test_private_reads_only_shrink():
    found = private_reads()
    assert sorted(found - ALLOWED) == [], "a module reads a private name of another module"
    assert sorted(ALLOWED - found) == [], "a pinned read is gone: drop it from ALLOWED"
