"""Import and export hygiene of the package, read with the stdlib `ast`:
every name a module imports is used in that module (the package's
`__init__` uses a name by listing it in `__all__`), every `__all__`
entry resolves, and every top-level definition is used or exported."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import canstrip

SRC = Path(canstrip.__file__).parent
MODULES = sorted(SRC.glob("*.py"))


def imported_names(tree):
    """{bound name: line} for every import in the module but `__future__`."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_every_export_resolves():
    missing = [name for name in canstrip.__all__ if not hasattr(canstrip, name)]
    assert not missing
    assert len(set(canstrip.__all__)) == len(canstrip.__all__)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_imports_dataclasses(path):
    """`import dataclasses` costs every run its start-up time (it pulls in
    `inspect`); the records are `Record` subclasses and `NamedTuple`s."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert not {m for m in modules if m and m.split(".")[0] == "dataclasses"}, path.name


def references(tree):
    """How often each name is read, as a bare name or as an attribute."""
    return Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))
    )


def test_every_top_level_definition_is_referenced():
    """A top-level function or class is used somewhere in the package outside
    its own body, or exported through `__all__`: nothing is left dead."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    everywhere = sum((references(tree) for tree in trees.values()), Counter())
    dead = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in canstrip.__all__
        and everywhere[node.name] == references(node)[node.name]
    ]
    assert not dead, f"unreferenced definitions: {dead}"
