"""The library holds no assert statement and raises no bare
AssertionError: python -O strips asserts, and both are untyped, so every
invariant check raises a typed error instead.  Nor does it catch every
error at once, with a bare except or a handler for Exception or
BaseException, which would swallow the typed ones.  And no module but
the package's __init__, which re-exports the API, imports a name it
never uses.  No function takes a budget it may run without, no class
sets an attribute on self that nothing reads, no private function or
class is left without a caller, and no ring is built without
validation except from cells that load_catalog validated."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "srings"


def _trees(*folders):
    for folder in folders:
        for path in sorted(folder.glob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _raises_assertion_error(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assert_statements():
    found = []
    for path, tree in _trees(SRC):
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)
                  or isinstance(node, ast.Raise) and node.exc is not None
                  and _raises_assertion_error(node)]
    assert found == []


def _catches_everything(handler):
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) \
        else [handler.type]
    return handler.type is None or any(
        isinstance(kind, ast.Name) and kind.id in ("Exception",
                                                   "BaseException")
        for kind in kinds)


def test_library_has_no_catch_all_handlers():
    found = []
    for path, tree in _trees(SRC):
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.ExceptHandler)
                  and _catches_everything(node)]
    assert found == []


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_library_has_no_unused_imports():
    found = []
    for path, tree in _trees(SRC):
        if path.name == "__init__.py":
            continue
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}"
                  for line, name in _imported_names(tree) if name not in used]
    assert found == []


def test_library_budgets_are_required():
    """A search that may run without a budget is unbounded; every budget
    parameter must be passed."""
    found = []
    for path, tree in _trees(SRC):
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            pairs = list(zip(positional[len(positional) - len(args.defaults):],
                             args.defaults))
            pairs += list(zip(args.kwonlyargs, args.kw_defaults))
            found += [f"{path.name}:{node.lineno} {node.name}"
                      for arg, default in pairs
                      if arg.arg == "budget" and isinstance(default, ast.Constant)
                      and default.value is None]
    assert found == []


def test_library_reads_every_attribute_it_sets():
    """Every attribute a library class assigns on self is read somewhere
    in the library or its tests; one that is never read is dead state."""
    tests = pathlib.Path(__file__).resolve().parent
    read = {node.attr for _path, tree in _trees(SRC, tests)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    found = []
    for path, tree in _trees(SRC):
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            found += [f"{path.name}:{node.lineno} {cls.name}.{node.attr}"
                      for node in ast.walk(cls)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.ctx, ast.Store)
                      and isinstance(node.value, ast.Name)
                      and node.value.id == "self"
                      and node.attr not in read]
    assert found == []


def test_library_builds_rings_only_from_validated_cells():
    """SRing(...) trusts its cells: only validate_partition, which checks
    them, and the CLI's worker, which gets the cells load_catalog
    checked, may call it."""
    found = []
    for path, tree in _trees(SRC):
        owner = {}
        # breadth first, so a nested function's nodes get the inner name
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((node, func.name) for node in ast.walk(func))
        found += [f"{path.stem}.{owner.get(node, '<module>')}"
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id",
                              getattr(node.func, "attr", None)) == "SRing"]
    assert sorted(found) == ["cli._decide_entry", "sring.validate_partition"]


def test_library_private_helpers_have_callers():
    """Every private function or class of the library is referenced, by
    name or as an attribute, somewhere in the library outside its own
    definition; one that is not is dead code a deletion left behind."""
    trees = list(_trees(SRC))
    refs = [node for _path, tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    found = []
    for path, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                    or not node.name.startswith("_") \
                    or node.name.endswith("__"):
                continue
            own = {id(inner) for inner in ast.walk(node)}
            if not any(getattr(ref, "id", getattr(ref, "attr", None))
                       == node.name and id(ref) not in own for ref in refs):
                found.append(f"{path.name}:{node.lineno} {node.name}")
    assert found == []
