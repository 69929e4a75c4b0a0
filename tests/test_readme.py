"""The README's subcommand chain parses under the current command line."""

import os
import shlex

from ccgmwe import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _chain():
    """The argv of each command in the sh block under "Pipeline stages as
    subcommands", with backslash continuations joined."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        text = handle.read()
    section = text.split("\n## Pipeline stages as subcommands\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)
            for line in block.replace("\\\n", " ").splitlines()
            if line.strip()]


def test_each_readme_chain_line_dispatches_to_its_subcommand(monkeypatch):
    called = []
    for name in dir(cli):
        if name.startswith("_run_"):
            monkeypatch.setattr(cli, name,
                                lambda args, name=name: called.append(name))
    chain = _chain()
    assert len(chain) == 10
    for argv in chain:
        assert argv[0] == "ccgmwe", argv
        del called[:]
        assert cli.main(argv[1:]) == 0, argv
        # extract-deps is handled by _run_extract
        assert called == ["_run_" + argv[1].split("-")[0]], argv
