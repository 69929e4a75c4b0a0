"""Every module names each name it imports at module level, and every
private module-level name of the package is used in its own module.

No linter is a test dependency, so these checks stand in for one: each
module under src/ccgmwe/, tests/ and tools/ is parsed with ast, and a
top-level import that binds a name the module never uses fails, unless
the import's lines carry ``# noqa``.  In src/ccgmwe/, a top-level
function, class or assignment whose name starts with one underscore fails
unless another top-level statement of the same module refers to it, so a
refactor cannot leave a dead helper or table.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ccgmwe").glob("*.py"))
MODULES = sorted(PACKAGE + list((ROOT / "tests").glob("*.py"))
                 + list((ROOT / "tools").glob("*.py")))


def unused_imports(source):
    """The names bound by top-level imports of `source` that no name in it
    refers to, as "line N: name"."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = []
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in used:
                unused.append("line %d: %s" % (node.lineno, name))
    return unused


def unused_private_names(source):
    """The top-level names of `source` that start with one underscore and
    that no other top-level statement loads, as "line N: name"."""
    tree = ast.parse(source)
    loads = [{node.id for node in ast.walk(statement)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             for statement in tree.body]
    unused = []
    for index, statement in enumerate(tree.body):
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            names = [statement.name]
        elif isinstance(statement, ast.Assign):
            names = [node.id for target in statement.targets
                     for node in ast.walk(target)
                     if isinstance(node, ast.Name)]
        elif isinstance(statement, ast.AnnAssign):
            names = [statement.target.id]
        else:
            continue
        elsewhere = set().union(*loads[:index], *loads[index + 1:])
        unused += ["line %d: %s" % (statement.lineno, name) for name in names
                   if name.startswith("_") and not name.startswith("__")
                   and name not in elsewhere]
    return unused


def test_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os.path\nimport sys as system\n"
              "from math import (pi,\n    tau)\nimport re  # noqa: F401\n"
              "\ndef f():\n    import json\n    return os.sep, tau\n")
    assert unused_imports(source) == ["line 3: system", "line 4: pi"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_top_level_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_unused_private_names():
    source = ("__all__ = ['f']\n_TABLE = {}\n_DEAD = {}\n"
              "def _walk(node):\n    return _walk(node)\n"
              "def _used():\n    return _TABLE\n"
              "class _Gone:\n    pass\n_x: int = 1\n"
              "def f():\n    return _used(), _x\n")
    assert unused_private_names(source) == [
        "line 3: _DEAD", "line 4: _walk", "line 8: _Gone"]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_private_name(path):
    assert unused_private_names(path.read_text(encoding="utf-8")) == []
