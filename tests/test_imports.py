"""Every module names each name it imports at module level.

No linter is a test dependency, so this check stands in for one: each
module under src/ccgmwe/ (except __init__.py, which re-exports), tests/
and tools/ is parsed with ast, and a top-level import that binds a name the
module never uses fails, unless the import's lines carry ``# noqa``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    [path for path in (ROOT / "src" / "ccgmwe").glob("*.py")
     if path.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py")) + list((ROOT / "tools").glob("*.py")))


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
