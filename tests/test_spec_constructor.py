"""Only groups.py calls the GroupSpec constructor: every other module gets
its specs from group_spec, make_group or parse_group, which keep one spec
per group, so that each group's tables are built once per process."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "srings"


def _calls_groupspec(node):
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else \
        getattr(func, "id", None)
    return name == "GroupSpec"


def test_only_groups_constructs_specs():
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "groups.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _calls_groupspec(node)]
    assert found == []
