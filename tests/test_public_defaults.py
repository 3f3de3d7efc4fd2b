"""Ratchet on the defaulted parameters of the package's public functions.

Every defaulted parameter of a public function or method in ``src/ncjulia``
is a setting a caller can change.  The ones that remain are pinned below; a
new one fails this test, and a removed one must be dropped from the list,
so settings are added only on purpose.
"""

import ast
from pathlib import Path

import ncjulia

# (module, function or Class.method, parameter)
PINNED = {
    ("boundary", "analyze_bpoint", "direction"),
    ("boundary", "analyze_bpoint", "first_step"),
    ("boundary", "analyze_bpoint", "julia_samples"),
    ("boundary", "analyze_bpoint", "margin"),
    ("boundary", "analyze_bpoint", "num_steps"),
    ("boundary", "analyze_bpoint", "range_tol"),
    ("boundary", "analyze_bpoint", "rel_tol"),
    ("boundary", "analyze_bpoint", "seed"),
    ("boundary", "is_bpoint_range_test", "seed"),
    ("boundary", "is_bpoint_range_test", "tol"),
    ("boundary", "julia_inequality_check", "rel_tol"),
    ("boundary", "julia_sweep", "u_t"),
    ("cli", "main", "argv"),
    ("cli", "render_json", "indent"),
    ("cli", "render_text", "prefix"),
    ("derivative", "eta_numeric", "first_step"),
    ("derivative", "eta_numeric", "steps"),
    ("derivative", "scalar_angular_derivative", "v"),
    ("derivative", "scalar_angular_derivative", "w"),
    ("domain", "find_transverse_direction", "n_starts"),
    ("domain", "find_transverse_direction", "seed"),
    ("domain", "random_interior_point", "margin"),
    ("freepoly", "poly_from_json", "d"),
    ("numerics", "as_complex_matrix", "name"),
    ("realization", "eval_u", "return_cond"),
    ("realization", "perturb_realization", "seed"),
    ("realization", "realization_from_json", "isometry_tol"),
}


def public_defaults() -> set:
    """(module, qualified name, parameter) of each defaulted parameter of a public function."""
    found = set()
    for path in sorted(Path(ncjulia.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        scopes = [("", node) for node in tree.body]
        scopes += [
            (f"{node.name}.", method)
            for node in tree.body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for method in node.body
        ]
        for prefix, node in scopes:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name.startswith("_"):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for arg in defaulted:
                found.add((path.stem, prefix + node.name, arg.arg))
    return found


def test_public_defaults_only_change_on_purpose():
    found = public_defaults()
    assert sorted(found - PINNED) == [], "a public function has a new defaulted parameter"
    assert sorted(PINNED - found) == [], "a pinned default is gone: drop it from PINNED"
