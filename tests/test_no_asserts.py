"""The library holds no assert statement: python -O strips them, so every
invariant check raises a typed error instead."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "srings"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
