"""Import and export hygiene of the package, read with the stdlib `ast`:
every name a module imports is used in that module (the package's
`__init__` uses a name by listing it in `__all__`), and every `__all__`
entry resolves."""

import ast
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
