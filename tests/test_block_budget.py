"""The block budget is read in two modules only.

``domain.BLOCK_BYTES`` bounds each stacked array, and ``domain.block_rows``
divides it.  ``domain`` sizes the Gram map's lifts by it, and
``realization.solve_rows`` sizes each stacked model solve and so each block
the Julia sweep draws; every other module takes its stacks or block sizes
from those two, so no caller counts block bytes again.
"""

import ast
from pathlib import Path

import ncjulia

BUDGET_NAMES = {"BLOCK_BYTES", "block_rows"}
READERS = {"domain", "realization"}


def budget_reads() -> set:
    """(module, name) of each import, name or attribute read of a budget name."""
    found = set()
    for path in sorted(Path(ncjulia.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = {alias.name for alias in node.names}
            elif isinstance(node, ast.Name):
                names = {node.id}
            elif isinstance(node, ast.Attribute):
                names = {node.attr}
            else:
                continue
            found |= {(path.stem, name) for name in names & BUDGET_NAMES}
    return found


def test_budget_read_only_by_domain_and_realization():
    readers = {module for module, _ in budget_reads()}
    assert readers == READERS, "a module other than domain and realization counts block bytes"
