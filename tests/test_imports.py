"""Every module names each name it imports at module level, every
private module-level name of the package is used in its own module, and
each subcommand loads only the package modules of its stage.

No linter is a test dependency, so these checks stand in for one: each
module under src/ccgmwe/, tests/ and tools/ is parsed with ast, and a
top-level import that binds a name the module never uses fails, unless
the import's lines carry ``# noqa``.  In src/ccgmwe/, a top-level
function, class or assignment whose name starts with one underscore fails
unless another top-level statement of the same module refers to it, so a
refactor cannot leave a dead helper or table.  A public one fails unless
another top-level statement of the package, tools/ or perfbench/ refers
to it by a name, an attribute, an import alias or an exact string (the
tracer wraps functions named in a table); the tests do not count.  No
module of the package imports ``dataclasses``.

The chain of the README runs one subcommand per fresh interpreter, so
each of them, ``run`` and ``--help`` is started as a subprocess on a small
corpus, and the ``ccgmwe`` modules it leaves in ``sys.modules`` must be
exactly those of its stage.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ccgmwe.treebank import read_treebank, write_tokens

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ccgmwe").glob("*.py"))
MODULES = sorted(PACKAGE + list((ROOT / "tests").glob("*.py"))
                 + list((ROOT / "tools").glob("*.py")))
# the modules whose references keep a public name of the package alive
USERS = sorted(PACKAGE + list((ROOT / "tools").glob("*.py"))
               + list((ROOT / "perfbench").glob("*.py")))


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


def defined_names(statement):
    """The names a top-level function, class or assignment defines."""
    if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
        return [statement.name]
    if isinstance(statement, ast.Assign):
        return [node.id for target in statement.targets
                for node in ast.walk(target) if isinstance(node, ast.Name)]
    if isinstance(statement, ast.AnnAssign):
        return [statement.target.id]
    return []


def unused_private_names(source):
    """The top-level names of `source` that start with one underscore and
    that no other top-level statement loads, as "line N: name"."""
    tree = ast.parse(source)
    loads = [{node.id for node in ast.walk(statement)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             for statement in tree.body]
    unused = []
    for index, statement in enumerate(tree.body):
        elsewhere = set().union(*loads[:index], *loads[index + 1:])
        unused += ["line %d: %s" % (statement.lineno, name)
                   for name in defined_names(statement)
                   if name.startswith("_") and not name.startswith("__")
                   and name not in elsewhere]
    return unused


def references(statement):
    """The names `statement` loads, the attributes it reads, the names it
    imports and its string constants."""
    found = set()
    for node in ast.walk(statement):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def unused_public_names(sources):
    """The public top-level names of the package modules among `sources`,
    {module path: source text}, that no other top-level statement of any
    of them refers to, as "<module stem>.<name>"."""
    statements = [(path, statement) for path, source in sources.items()
                  for statement in ast.parse(source).body]
    counted = [references(statement) for _, statement in statements]
    unused = []
    for index, (path, statement) in enumerate(statements):
        if path not in PACKAGE:
            continue
        elsewhere = set().union(*counted[:index], *counted[index + 1:])
        unused += ["%s.%s" % (path.stem, name)
                   for name in defined_names(statement)
                   if not name.startswith("_") and name not in elsewhere]
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


def test_finds_unused_public_names():
    sources = {
        PACKAGE[0]: ("TABLE = {}\nDEAD = {}\ndef walk(node):\n"
                     "    return walk(node)\n"
                     "def used():\n    return TABLE\n"
                     "class Gone:\n    pass\n"),
        ROOT / "tools" / "user.py": ("from x import used\n"
                                    "NAMES = ('Gone',)\n"),
        ROOT / "perfbench" / "other.py": "DEAD = 1\n"}
    assert unused_public_names(sources) == [
        PACKAGE[0].stem + ".DEAD", PACKAGE[0].stem + ".walk"]


def test_no_unused_public_name():
    assert unused_public_names({path: path.read_text(encoding="utf-8")
                                for path in USERS}) == []


def test_no_module_imports_dataclasses():
    importers = []
    for path in PACKAGE:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module]
            else:
                continue
            importers += [path.name for name in names if name == "dataclasses"]
    assert importers == []


# runs ccgmwe.cli.main on its argv after the first, then writes its exit
# code, whether dataclasses was loaded and the loaded ccgmwe modules to the
# first
PROBE = """\
import json, sys
from ccgmwe.cli import main
try:
    code = main(sys.argv[2:])
except SystemExit as exc:
    code = exc.code
with open(sys.argv[1], "w") as handle:
    json.dump([code, "dataclasses" in sys.modules,
               sorted(name for name in sys.modules
                      if name.split(".")[0] == "ccgmwe")], handle)
"""

BASE = {"ccgmwe", "ccgmwe.cli", "ccgmwe.records", "ccgmwe.recognition"}
READ = BASE | {"ccgmwe.treebank", "ccgmwe.categories"}
PIPELINE = READ | {"ccgmwe.pipeline"}
PARSER = PIPELINE | {"ccgmwe.parser"}
EVALUATION = READ | {"ccgmwe.evaluation"}
EVERY = {"ccgmwe"} | {"ccgmwe." + path.stem for path in PACKAGE
                      if path.stem != "__init__"}

# the README chain on the first 12 shipped sentences, then `run` on them:
# (step name, argv, the ccgmwe modules it loads)
STEPS = [
    ("--help", ["--help"], BASE),
    ("split", ["split", "--treebank", "treebank.txt", "--train", "1-8",
               "--test", "9-12", "--output-dir", "splits"], PIPELINE),
    ("recognize", ["recognize", "--treebank", "treebank.txt", "--lexicon",
                   "lexicon.tsv", "--preset", "rec1", "--output", "occ.tsv"],
     PIPELINE),
    ("collapse", ["collapse", "--treebank", "treebank.txt", "--occurrences",
                  "occ.tsv", "--output-dir", "collapsed"],
     PARSER | {"ccgmwe.collapse"}),
    ("split-b", ["split", "--treebank", "collapsed/treebank_b.txt",
                 "--train", "1-8", "--test", "9-12", "--output-dir",
                 "splits_b"], PIPELINE),
    ("train", ["train", "--treebank", "splits/treebank_train.txt",
               "--output", "model_a.tsv"], READ | {"ccgmwe.parser"}),
    ("train-b", ["train", "--treebank", "splits_b/treebank_train.txt",
                 "--output", "model_b.tsv"], READ | {"ccgmwe.parser"}),
    ("extract-deps", ["extract-deps", "--treebank",
                      "splits/treebank_test.txt", "--output", "gold_a.deps"],
     PARSER),
    ("parse", ["parse", "--model", "model_a.tsv", "--tokens", "tokens.txt",
               "--ids", "ids.txt", "--output", "out_a.deps"], PARSER),
    ("parse-b", ["parse", "--model", "model_b.tsv", "--tokens",
                 "tokens_b.txt", "--ids", "ids.txt", "--output",
                 "out_b.deps"], PARSER),
    ("combine", ["combine", "--out-a", "out_a.deps", "--out-b", "out_b.deps",
                 "--occurrences", "occ.tsv", "--tokens", "tokens.txt",
                 "--scheme", "rightmostMed", "--output", "combined.deps"],
     PIPELINE | {"ccgmwe.evaluation", "ccgmwe.collapse"}),
    ("eval", ["eval", "--system", "out_a.deps", "--gold", "gold_a.deps",
              "--per-sentence", "counts_a.tsv"], EVALUATION),
    ("eval-combined", ["eval", "--system", "combined.deps", "--gold",
                       "gold_a.deps", "--per-sentence", "counts_c.tsv"],
     EVALUATION),
    ("sigtest", ["sigtest", "--x", "counts_c.tsv", "--y", "counts_a.tsv",
                 "--iterations", "32768"], EVALUATION),
    ("run", ["run", "--config", "run.cfg"], EVERY),
]


def test_subcommands_load_only_the_modules_of_their_stage(tmp_path,
                                                          data_dir):
    lines = Path(data_dir, "treebank.txt").read_text().splitlines(True)
    (tmp_path / "treebank.txt").write_text("".join(lines[:24]))
    (tmp_path / "lexicon.tsv").write_text(
        Path(data_dir, "lexicon.tsv").read_text())
    (tmp_path / "run.cfg").write_text(
        "treebank = treebank.txt\nlexicon = lexicon.tsv\noutput = run\n"
        "train = 1-8\ntest = 9-12\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    loaded = {}
    for name, argv, _ in STEPS:
        if name == "parse":     # the test split's tokens, as run writes them
            for split, path in (("splits", "tokens.txt"),
                                ("splits_b", "tokens_b.txt")):
                records = read_treebank(
                    str(tmp_path / split / "treebank_test.txt"))
                write_tokens(str(tmp_path / path), [r.tokens for r in records])
            (tmp_path / "ids.txt").write_text(
                "".join(r.sid + "\n" for r in records))
        report = tmp_path / "modules.json"
        subprocess.run([sys.executable, "-c", PROBE, str(report), *argv],
                       cwd=tmp_path, env=env, check=True, capture_output=True)
        code, dataclasses, modules = json.loads(report.read_text())
        assert (name, code, dataclasses) == (name, 0, False)
        loaded[name] = set(modules)
    assert loaded == {name: modules for name, _, modules in STEPS}
    # the stage boundaries that the sets above must keep
    assert not loaded["train"] & {"ccgmwe.pipeline", "ccgmwe.collapse",
                                  "ccgmwe.evaluation"}
    for name in ("split", "recognize", "parse", "extract-deps"):
        assert not loaded[name] & {"ccgmwe.collapse", "ccgmwe.evaluation"}
    for name in ("split", "recognize"):
        assert "ccgmwe.parser" not in loaded[name]
    for name in ("eval", "sigtest"):
        assert not loaded[name] & {"ccgmwe.parser", "ccgmwe.pipeline",
                                   "ccgmwe.collapse"}
