"""Import and export hygiene of the package, read with the stdlib `ast`:
every name a module imports is used in that module (the package's
`__init__` uses a name by listing it in `__all__`), every `__all__`
entry resolves, and every top-level definition is used or exported.  Last,
in fresh processes, which runs load the float proposer and `json`."""

import ast
import os
import subprocess
import sys
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


def test_every_record_is_slotted():
    """Each `Record` subclass declares `__slots__`, so no record has an
    instance `__dict__` and copies carry one state form; and no module imports
    `cached_property`, which needs that `__dict__`."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    records = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)
               and any(getattr(base, "id", None) == "Record" for base in node.bases)]
    assert len(records) >= 6
    for name, node in records:
        assigned = [t.id for stmt in node.body if isinstance(stmt, ast.Assign)
                    for t in ast.walk(stmt) if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)]
        assert "__slots__" in assigned, f"{name}: {node.name} has no __slots__"
    imported = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and any(a.name == "cached_property" for a in node.names)]
    assert not imported, f"cached_property imported at {imported}"


def test_no_check_is_a_bare_assert():
    """`python -O` strips `assert` statements, so every check in the package
    raises an exception instead (`ConsistencyError` for a failed identity)."""
    asserts = [f"{path.name}:{node.lineno}" for path in MODULES
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Assert)]
    assert not asserts, f"bare asserts: {asserts}"


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


def calls_to(tree, name):
    """Every call of a function reached as `<something>.name` or as `name`."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "attr", None), getattr(node.func, "id", None))]


def test_only_the_process_entry_freezes_the_heap():
    """`gc.freeze()` is called once, in `__main__.run` after `main` returns, so
    a caller of `cli.main` that stays alive keeps collecting its cycles; and no
    module leaves through `os._exit`, which skips atexit handlers and flushes."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    assert [name for name, tree in trees.items() if calls_to(tree, "_exit")] == []
    assert [name for name, tree in trees.items() if calls_to(tree, "freeze")] == ["__main__.py"]
    (run,) = [n for n in trees["__main__.py"].body if isinstance(n, ast.FunctionDef)]
    (freeze,) = calls_to(trees["__main__.py"], "freeze")
    (main,) = calls_to(run, "main")
    assert run.name == "run" and main.lineno < freeze.lineno <= run.end_lineno


def proposer_imports(tree):
    """Every `from .proposer import ...` and `from . import proposer` in the
    module, as (node, names)."""
    return [(node, [a.name for a in node.names]) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and (node.module == "proposer" or any(a.name == "proposer" for a in node.names))]


def test_verify_holds_exact_code_only():
    """`verify` decides the verdicts: it binds neither float module (from
    `math` it takes only the integer `lcm`), and from the proposer it takes
    only `_alternating_points`, inside the function that proposes.  `cli`
    loads the proposer only inside its `--digits` branches, so no module
    imports it at the top."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    verify = trees["verify.py"]
    modules = {alias.name for node in ast.walk(verify) if isinstance(node, ast.Import)
               for alias in node.names}
    taken = {alias.name for node in ast.walk(verify) if isinstance(node, ast.ImportFrom)
             and node.module in ("math", "cmath") for alias in node.names}
    assert not modules & {"math", "cmath"} and taken == {"lcm"}
    found = proposer_imports(verify)
    assert [names for _, names in found] == [["_alternating_points"]]
    assert found[0][0] not in verify.body
    for name, tree in trees.items():
        assert not [node for node, _ in proposer_imports(tree) if node in tree.body], name
    assert [names for _, names in proposer_imports(trees["cli.py"])] == [["approx_roots"]] * 2


# `python -m canstrip argv`, reporting at exit which modules that the package
# imports only where they are used were loaded
LAZY = ("canstrip.proposer", "json")
LOADED = f"[m for m in {LAZY!r} if m in sys.modules]"
PROBE = f"""
import atexit, runpy, sys
atexit.register(lambda: sys.stderr.write(f"\\nloaded: {{{LOADED}}}\\n"))
sys.argv[0] = "canstrip"
runpy.run_module("canstrip", run_name="__main__", alter_sys=True)
"""
SMALL_SWEEP = ("sweep", "--max-rank", "3", "--max-total-degree", "2")


@pytest.mark.parametrize("argv, loaded", [
    ((), []),
    (SMALL_SWEEP, []),
    (SMALL_SWEEP + ("--format", "csv"), []),
    (SMALL_SWEEP + ("--format", "json"), ["json"]),
    (("ci", "--type", "E8", "--node", "4", "--degrees", "3"), ["canstrip.proposer"]),
], ids=["import", "small sweep", "csv sweep", "json sweep", "hard residual"])
def test_only_a_run_that_proposes_loads_the_float_proposer(argv, loaded):
    """`import canstrip.cli` and a sweep whose even parts all stay below
    ALTERNATION_MIN_DEGREE never compile the double-precision proposer; a
    residual whose even part reaches it (degree 53 here) loads it.  Likewise
    only a run that reads or writes JSON imports `json`."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = f"import sys, canstrip.cli; print({LOADED})" if not argv else PROBE
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    report = done.stdout if not argv else done.stderr.rsplit("loaded: ", 1)[1]
    assert report.strip() == str(loaded)
