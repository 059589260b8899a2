"""The library holds no assert statement and raises no bare
AssertionError: python -O strips asserts, and both are untyped, so every
invariant check raises a typed error instead."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "srings"


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Raise) and node.exc is not None
                  and _raises_assertion_error(node)]
    assert found == []
