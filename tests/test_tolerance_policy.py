"""Every tolerance in the package is a named module-level constant.

A float literal in (0, 1e-3) is almost always a tolerance. Each one must
be the value of a module-level UPPER_CASE constant, so that the policy
can be read, and changed, in one place per module.
"""

import ast
from pathlib import Path

import slocceq

PACKAGE = Path(slocceq.__file__).resolve().parent


def named_constant_values(tree: ast.Module) -> set:
    """Ids of the literal nodes assigned to module-level UPPER_CASE names."""
    ids = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign):
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, ast.Constant) and all(
            isinstance(t, ast.Name) and t.id.isupper() for t in targets
        ):
            ids.add(id(value))
    return ids


def unnamed_tolerances(source: str) -> list:
    tree = ast.parse(source)
    named = named_constant_values(tree)
    return [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0.0 < node.value < 1e-3
        and id(node) not in named
    ]


def test_no_unnamed_tolerance_literals():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) >= 9
    found = {
        path.name: hits
        for path in modules
        if (hits := unnamed_tolerances(path.read_text(encoding="utf-8")))
    }
    assert found == {}


def test_guard_catches_an_inline_tolerance():
    source = "EPS = 1e-9\n\ndef f(x, tol=1e-8):\n    return x < 1e-12 and x > EPS\n"
    assert unnamed_tolerances(source) == [(3, 1e-8), (4, 1e-12)]
    assert unnamed_tolerances("class C:\n    TOL = 1e-6\n") == [(2, 1e-6)]
