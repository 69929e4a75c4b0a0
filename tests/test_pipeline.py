import gc
import hashlib
import inspect
import json
import os
import stat

import pytest

from ccgmwe import evaluation, parser, recognition, treebank
from ccgmwe.cli import main
from ccgmwe.pipeline import (ARTIFACTS, collapse_record, parse_corpus,
                             read_config, run_pipeline)
from ccgmwe.recognition import PRESETS, recognize
from ccgmwe.treebank import DerivationTree, Dependency, leaves

# records the artifact digests of each shipped-preset run under out/<name>
REFERENCE = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "reference.json")


def _rec1_digests():
    """{out/<artifact>: sha256} of the rec1 run on the shipped corpus."""
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)["shipped-presets"]["rec1"]


def _sha256(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def test_parse_memo_parses_each_distinct_input_once(tmp_path, data_dir,
                                                    configs_dir, monkeypatch):
    calls = []
    real_parse = parser.parse

    def counting_parse(model, tokens):
        calls.append((id(model), tuple(tokens)))
        return real_parse(model, tokens)

    monkeypatch.setattr(parser, "parse", counting_parse)
    config = read_config([os.path.join(configs_dir, "base.cfg"),
                          os.path.join(configs_dir, "rec1.cfg")])
    config.treebank = os.path.join(data_dir, "treebank.txt")
    config.lexicon = os.path.join(data_dir, "lexicon.tsv")
    config.output = str(tmp_path)
    result = run_pipeline(config)
    # five passes over 15 test sentences make 75 inputs, 41 of them distinct
    assert len(calls) == len(set(calls)) == 41
    assert result["stats"]["parse_failures_a"] == 1
    assert result["stats"]["parse_failures_b"] == 1
    summary = (tmp_path / "summary.txt").read_text()
    assert "parse failures: model A 1, model B 1\n" in summary
    # the parse memo leaves report and summary as one parse per pass would
    digests = _rec1_digests()
    assert _sha256(tmp_path / "report.tsv") == digests["out/report.tsv"]
    assert _sha256(tmp_path / "summary.txt") == digests["out/summary.txt"]


def test_collapse_record_shares_tokens_only_when_nothing_is_kept(corpus,
                                                                 lexicon):
    shared = built = 0
    for record in corpus:
        occurrences = recognize(lexicon, record.tokens, PRESETS["rec1"])
        collapsed = collapse_record(record, occurrences,
                                    parser.extract_dependencies(record.tree))
        tokens = collapsed.record.tokens
        if collapsed.outcome.kept:
            assert tokens is not record.tokens
            assert tokens == [token for _, token
                              in leaves(collapsed.record.tree)]
            built += 1
        else:
            assert tokens is record.tokens
            shared += 1
    assert shared > 0 and built > 0


def _from_ccgmwe(obj):
    module = obj.__module__ if inspect.isfunction(obj) \
        else type(obj).__module__
    return module.split(".")[0] == "ccgmwe"


def test_run_leaves_no_cyclic_garbage(tmp_path, data_dir, configs_dir):
    config = read_config([os.path.join(configs_dir, "base.cfg"),
                          os.path.join(configs_dir, "rec1.cfg")])
    config.treebank = os.path.join(data_dir, "treebank.txt")
    config.lexicon = os.path.join(data_dir, "lexicon.tsv")
    config.output = str(tmp_path)
    flags = gc.get_debug()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_pipeline(config)
        gc.collect()
        ours = [obj for obj in gc.garbage if _from_ccgmwe(obj)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
    assert ours == []


def test_no_tree_of_the_run_is_alive_when_sig_test_runs(
        tmp_path, data_dir, configs_dir, monkeypatch):
    # run keeps the text of its treebank files, not their trees, once
    # model B is trained; the parse trees die with their passes
    def trees():
        return sum(type(obj) is DerivationTree for obj in gc.get_objects())

    seen = []
    real_sig_test = evaluation.sig_test

    def sig_test(*args, **kwargs):
        if not seen:
            seen.append(trees())
        return real_sig_test(*args, **kwargs)

    monkeypatch.setattr(evaluation, "sig_test", sig_test)
    config = read_config([os.path.join(configs_dir, "base.cfg"),
                          os.path.join(configs_dir, "rec1.cfg")])
    config.treebank = os.path.join(data_dir, "treebank.txt")
    config.lexicon = os.path.join(data_dir, "lexicon.tsv")
    config.output = str(tmp_path)
    gc.collect()
    before = trees()
    run_pipeline(config)
    assert seen == [before]


def test_no_edge_of_the_run_is_alive_when_sig_test_runs(
        tmp_path, data_dir, configs_dir, monkeypatch):
    # run writes every artifact but report and summary before its first
    # significance test, and lets their data go: numpy, where a test loads
    # it, then lands on a heap that holds no edge of the run
    def edges():
        return sum(type(obj) is Dependency for obj in gc.get_objects())

    seen = []
    real_sig_test = evaluation.sig_test

    def sig_test(*args, **kwargs):
        if not seen:
            seen.append(edges())
        return real_sig_test(*args, **kwargs)

    monkeypatch.setattr(evaluation, "sig_test", sig_test)
    config = read_config([os.path.join(configs_dir, "base.cfg"),
                          os.path.join(configs_dir, "rec1.cfg")])
    config.treebank = os.path.join(data_dir, "treebank.txt")
    config.lexicon = os.path.join(data_dir, "lexicon.tsv")
    config.output = str(tmp_path / "out")
    gc.collect()
    before = edges()
    run_pipeline(config)
    assert seen == [before]


def _run_argv(tmp_path, data_dir, configs_dir, extra=""):
    """`ccgmwe run` argv of rec1 on the shipped corpus into tmp_path/out,
    its configuration layer written to tmp_path/run.cfg."""
    layer = tmp_path / "run.cfg"
    layer.write_text("treebank = %s\nlexicon = %s\noutput = %s\n%s"
                     % (os.path.join(data_dir, "treebank.txt"),
                        os.path.join(data_dir, "lexicon.tsv"),
                        tmp_path / "out", extra))
    return ["run", "--config", os.path.join(configs_dir, "base.cfg"),
            "--config", os.path.join(configs_dir, "rec1.cfg"),
            "--config", str(layer)]


def _contents(directory):
    return {name: (directory / name).read_bytes()
            for name in os.listdir(directory)}


def test_emptied_dev_split_leaves_no_stale_dev_treebank(tmp_path, data_dir,
                                                        configs_dir):
    # the second run writes no treebank_dev.txt, and the first run's goes
    assert main(_run_argv(tmp_path, data_dir, configs_dir)) == 0
    out = tmp_path / "out"
    assert sorted(os.listdir(out)) == sorted(ARTIFACTS)
    assert main(_run_argv(tmp_path, data_dir, configs_dir, "dev =\n")) == 0
    assert sorted(os.listdir(out)) == sorted(
        set(ARTIFACTS) - {"treebank_dev.txt"})
    assert sorted(os.listdir(tmp_path)) == ["out", "run.cfg"]


@pytest.mark.parametrize("failure", [OSError, KeyboardInterrupt])
def test_failed_run_leaves_the_previous_output_as_it_was(
        failure, tmp_path, data_dir, configs_dir, monkeypatch, capsys):
    # the artifacts written before the significance tests go to the staging
    # directory, which the failure removes
    argv = _run_argv(tmp_path, data_dir, configs_dir)
    assert main(argv) == 0
    out = tmp_path / "out"
    before = _contents(out)
    capsys.readouterr()

    def sig_test(*args, **kwargs):
        raise failure("injected failure")

    monkeypatch.setattr(evaluation, "sig_test", sig_test)
    if failure is KeyboardInterrupt:
        with pytest.raises(KeyboardInterrupt):
            main(argv)
    else:
        assert main(argv) == 1
        assert capsys.readouterr().err == "error [run] injected failure\n"
    assert _contents(out) == before
    assert sorted(os.listdir(tmp_path)) == ["out", "run.cfg"]


def test_failed_run_removes_the_directories_it_made_for_its_output(
        tmp_path, data_dir, configs_dir, monkeypatch):
    def sig_test(*args, **kwargs):
        raise OSError("injected failure")

    monkeypatch.setattr(evaluation, "sig_test", sig_test)
    config = read_config([os.path.join(configs_dir, "base.cfg"),
                          os.path.join(configs_dir, "rec1.cfg")])
    config.treebank = os.path.join(data_dir, "treebank.txt")
    config.lexicon = os.path.join(data_dir, "lexicon.tsv")
    config.output = str(tmp_path / "new" / "below" / "out")
    with pytest.raises(OSError):
        run_pipeline(config)
    assert os.listdir(tmp_path) == []


def test_foreign_file_in_the_output_stops_run_before_any_work(
        tmp_path, data_dir, configs_dir, monkeypatch, capsys):
    # a file named in ARTIFACTS, as an earlier run leaves it, is no reason
    # to stop; any other is, and run names it and writes nothing
    def iter_treebank(path):
        pytest.fail("read the treebank with a foreign file in the output")

    monkeypatch.setattr(treebank, "iter_treebank", iter_treebank)
    out = tmp_path / "out"
    out.mkdir()
    (out / "notes.txt").write_text("mine\n")
    (out / "report.tsv").write_text("an earlier run's\n")
    argv = _run_argv(tmp_path, data_dir, configs_dir)
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == ("error [run] output %s holds notes.txt, which "
                            "run does not write\n" % out)
    assert captured.out == ""
    assert _contents(out) == {"notes.txt": b"mine\n",
                              "report.tsv": b"an earlier run's\n"}
    assert sorted(os.listdir(tmp_path)) == ["out", "run.cfg"]


def test_rerun_keeps_the_permissions_of_the_output(tmp_path, data_dir,
                                                  configs_dir):
    # run replaces the output directory: a new one has the mode of any new
    # directory, and one that replaces an earlier output takes its mode
    umask = os.umask(0)
    os.umask(umask)
    argv = _run_argv(tmp_path, data_dir, configs_dir)
    assert main(argv) == 0
    out = tmp_path / "out"
    assert stat.S_IMODE(out.stat().st_mode) == 0o777 & ~umask
    out.chmod(0o2750)
    assert main(argv) == 0
    assert stat.S_IMODE(out.stat().st_mode) == 0o2750


@pytest.mark.parametrize("cause", ["mount point", "parent not writable"])
def test_output_that_cannot_be_replaced_stops_run_before_any_work(
        cause, tmp_path, data_dir, configs_dir, monkeypatch, capsys):
    # run renames the output aside to replace it, which a mount point, or a
    # directory in a parent that run cannot write, does not allow
    def iter_treebank(path):
        pytest.fail("read the treebank with an output it cannot replace")

    out = tmp_path / "out"
    out.mkdir()
    (out / "report.tsv").write_text("an earlier run's\n")
    if cause == "mount point":
        ismount = os.path.ismount
        monkeypatch.setattr(os.path, "ismount", lambda path: (
            path == os.path.realpath(out) or ismount(path)))
        message = "output %s is a mount point, which run cannot replace"
    else:
        access = os.access
        monkeypatch.setattr(os, "access", lambda path, mode, **kwargs: (
            path != os.path.realpath(tmp_path)
            and access(path, mode, **kwargs)))
        message = ("output %s cannot be replaced: its parent directory is "
                   "not writable")
    monkeypatch.setattr(treebank, "iter_treebank", iter_treebank)
    assert main(_run_argv(tmp_path, data_dir, configs_dir)) == 1
    assert capsys.readouterr().err == "error [run] %s\n" % (message % out)
    assert _contents(out) == {"report.tsv": b"an earlier run's\n"}
    assert sorted(os.listdir(tmp_path)) == ["out", "run.cfg"]


def test_file_put_into_the_output_during_the_run_is_named(
        tmp_path, data_dir, configs_dir, monkeypatch, capsys):
    # the previous output is renamed aside with the file in it; run removes
    # its own artifacts there, keeps the file and exits 1 naming both
    argv = _run_argv(tmp_path, data_dir, configs_dir)
    assert main(argv) == 0
    out = tmp_path / "out"
    capsys.readouterr()
    real_sig_test = evaluation.sig_test

    def sig_test(*args, **kwargs):
        (out / "notes.txt").write_text("mine\n")
        return real_sig_test(*args, **kwargs)

    monkeypatch.setattr(evaluation, "sig_test", sig_test)
    assert main(argv) == 1
    err = capsys.readouterr().err
    retired = [name for name in os.listdir(tmp_path)
               if name.startswith(".out.staging-")]
    assert len(retired) == 1
    assert err == ("error [run] output %s holds this run's artifacts, but "
                   "notes.txt, which run does not write, came into it during "
                   "the run and is now in %s\n"
                   % (out, os.path.realpath(tmp_path / retired[0])))
    assert _contents(tmp_path / retired[0]) == {"notes.txt": b"mine\n"}
    assert sorted(os.listdir(out)) == sorted(ARTIFACTS)


def test_run_draws_each_swap_column_once(tmp_path, data_dir, configs_dir,
                                        monkeypatch):
    # rec4's four tests differ in 4, 5, 6 and 1 of the 15 test sentences,
    # 6 in all: a run draws those 6 columns of 10,000 swaps once each, not
    # 16, and the next run starts with none of them
    seen, requested = [], []
    real_sig_test, swap_columns = evaluation.sig_test, evaluation._swap_columns

    def sig_test(*args, drawn, **kwargs):
        seen.append((drawn, len(drawn)))
        return real_sig_test(*args, drawn=drawn, **kwargs)

    def counted(drawn, columns, *args):
        requested.append(len(columns))
        return swap_columns(drawn, columns, *args)

    monkeypatch.setattr(evaluation, "sig_test", sig_test)
    monkeypatch.setattr(evaluation, "_swap_columns", counted)
    config = read_config([os.path.join(configs_dir, "base.cfg"),
                          os.path.join(configs_dir, "rec4.cfg")])
    config.treebank = os.path.join(data_dir, "treebank.txt")
    config.lexicon = os.path.join(data_dir, "lexicon.tsv")
    for run in ("first", "second"):
        config.output = str(tmp_path / run)
        run_pipeline(config)
    assert requested == [4, 5, 6, 1] * 2
    first, second = seen[:4], seen[4:]
    for calls in (first, second):
        drawn = calls[0][0]
        assert [memo is drawn for memo, _ in calls] == [True] * 4
        assert calls[0][1] == 0
        assert len(drawn) == 6
        assert {len(bits) for bits in drawn.values()} == {10000}
    assert first[0][0] is not second[0][0]


def test_empty_dev_split_writes_every_artifact_but_its_treebank(
        tmp_path, data_dir, configs_dir):
    layer = tmp_path / "nodev.cfg"
    layer.write_text("treebank = %s\nlexicon = %s\noutput = %s\ndev =\n"
                     % (os.path.join(data_dir, "treebank.txt"),
                        os.path.join(data_dir, "lexicon.tsv"),
                        tmp_path / "out"))
    run_pipeline(read_config([os.path.join(configs_dir, "base.cfg"),
                              os.path.join(configs_dir, "rec1.cfg"),
                              str(layer)]))
    shipped = _rec1_digests()
    expected = sorted(name[len("out/"):] for name in shipped
                      if name.startswith("out/")
                      and name != "out/treebank_dev.txt")
    assert len(expected) == 35
    assert sorted(os.listdir(tmp_path / "out")) == expected


def test_longest_and_leftmost_resolvers_differ_end_to_end(tmp_path, data_dir,
                                                          configs_dir):
    # test sentence 48 is "The stock market fell slightly yesterday ."; the
    # longer entry starts later, so longest and leftmost keep different ones
    lexicon = tmp_path / "overlap.tsv"
    lexicon.write_text("stock market\tgeneral\t7\t2;3\n"
                       "market fell slightly\tgeneral\t9\t1;1;1\n")
    occurrences = {}
    for preset in ("rec1", "rec2"):
        config = read_config([os.path.join(configs_dir, "base.cfg"),
                              os.path.join(configs_dir, preset + ".cfg")])
        config.treebank = os.path.join(data_dir, "treebank.txt")
        config.lexicon = str(lexicon)
        config.output = str(tmp_path / preset)
        run_pipeline(config)
        occurrences[preset] = (tmp_path / preset / "occurrences.tsv"
                               ).read_text().splitlines()
    assert occurrences["rec1"] != occurrences["rec2"]
    sentence = {preset: [line for line in lines if line.startswith("48\t")]
                for preset, lines in occurrences.items()}
    assert sentence["rec1"] == ["48\t2,3,4\tmarket+fell+slightly\tgeneral"]
    assert sentence["rec2"] == ["48\t1,2\tstock+market\tgeneral"]


@pytest.mark.parametrize("command", ["run", "split", "collapse", "parse"])
def test_no_derivation_tree_outlives_its_sentence(command, tmp_path,
                                                  data_dir, configs_dir,
                                                  monkeypatch, corpus):
    # each command reads, splits, recognizes, collapses or parses one
    # sentence at a time, and a parse tree dies before the next parse: at
    # every per-sentence step it holds at most two sentences' trees
    def nodes(tree):
        return 1 + sum(map(nodes, tree.children))

    def trees():
        return sum(type(obj) is DerivationTree for obj in gc.get_objects())

    path = os.path.join(data_dir, "treebank.txt")
    out = str(tmp_path / "out")
    if command == "run":
        config = read_config([os.path.join(configs_dir, "base.cfg"),
                              os.path.join(configs_dir, "rec1.cfg")])
        config.treebank = path
        config.lexicon = os.path.join(data_dir, "lexicon.tsv")
        config.output = out
        steps, calls = [(recognition, "recognize"), (parser, "parse")], 60 + 41
    elif command == "split":
        argv = ["split", "--treebank", path, "--train", "1-40", "--dev",
                "41-45", "--test", "46-60", "--output-dir", out]
        steps, calls = [(treebank, "render_treebank")], 60
    elif command == "collapse":
        occurrences = str(tmp_path / "occ.tsv")
        assert main(["recognize", "--treebank", path, "--lexicon",
                     os.path.join(data_dir, "lexicon.tsv"), "--preset",
                     "rec1", "--output", occurrences]) == 0
        argv = ["collapse", "--treebank", path, "--occurrences", occurrences,
                "--output-dir", out]
        steps, calls = [(recognition, "rebind_tokens")], 60
    else:
        model, tokens = str(tmp_path / "model.tsv"), str(tmp_path / "tokens")
        parser.save_model(model, parser.train(corpus[:40], 0.1))
        treebank.write_tokens(tokens, [r.tokens for r in corpus[45:]])
        argv = ["parse", "--model", model, "--tokens", tokens, "--output",
                out + ".deps", "--trees", out + ".tb"]
        steps, calls = [(parser, "parse")], 15
    limit = 2 * max(nodes(record.tree) for record in corpus)
    alive = []

    def counted(function):
        def call(*args):
            alive.append(trees() - before)
            return function(*args)
        return call

    for module, name in steps:
        monkeypatch.setattr(module, name, counted(getattr(module, name)))
    gc.collect()
    before = trees()
    if command == "run":
        run_pipeline(config)
    else:
        assert main(argv) == 0
    assert len(alive) == calls
    assert max(alive) <= limit


def test_parsed_edges_equal_to_gold_ones_are_the_gold_objects(corpus):
    model = parser.train(corpus[:40], 0.1)
    test = {record.sid: record.tokens for record in corpus[45:]}
    golds = {record.sid: parser.extract_dependencies(record.tree)
             for record in corpus[45:]}
    deps, failures = parse_corpus(model, test, "parse", {}, golds)
    assert (deps, failures) == parse_corpus(model, test, "parse", {})
    shared = fresh = 0
    for sid, edges in deps.items():
        gold = {dep.key(): dep for dep in golds[sid]}
        for edge in edges:
            if edge.key() in gold:
                assert edge is gold[edge.key()]
                shared += 1
            else:
                assert all(edge is not dep for dep in golds[sid])
                fresh += 1
    assert shared > 0 and fresh > 0
