import gc
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from ccgmwe import parser, pipeline, recognition
from ccgmwe import treebank as treebank_module
from ccgmwe.cli import main
from ccgmwe.recognition import SCHEMES
from ccgmwe.parser import load_model, parse
from ccgmwe.pipeline import (PipelineError, parse_id_spec, read_config,
                             run_pipeline, split_records)
from ccgmwe.recognition import PRESETS
from ccgmwe.treebank import (MAX_TREE_DEPTH, read_dependencies,
                             read_occurrences, read_tokens, read_treebank,
                             write_treebank)


def base_config(tmp_path, data_dir, extra=""):
    path = tmp_path / "exp.cfg"
    path.write_text(
        "treebank = %s\nlexicon = %s\noutput = %s\n"
        "train = 1-40\ndev = 41-45\ntest = 46-60\n"
        "smoothing = 0.1\nseed = 13\niterations = 2000\n%s"
        % (os.path.join(data_dir, "treebank.txt"),
           os.path.join(data_dir, "lexicon.tsv"),
           tmp_path / "out", extra))
    return str(path)


@pytest.fixture(scope="module")
def rec1_out(tmp_path_factory, data_dir, configs_dir):
    """Output directory of one rec1 run on the shipped corpus."""
    tmp_path = tmp_path_factory.mktemp("rec1")
    config = base_config(tmp_path, data_dir)
    assert main(["run", "--config", config,
                 "--config", os.path.join(configs_dir, "rec1.cfg")]) == 0
    return tmp_path / "out"


class TestConfig:
    def test_id_spec_parsing(self):
        assert parse_id_spec("1-4") == {1, 2, 3, 4}
        assert parse_id_spec("1-3,7") == {1, 2, 3, 7}
        assert parse_id_spec("5") == {5}
        assert parse_id_spec("3-3, 9") == {3, 9}

    @pytest.mark.parametrize("spec,message", [
        ("5-1", "'5-1' is reversed"), ("1-x", "'1-x' is not numeric"),
        ("a", "'a' is not numeric"), ("1-4,7-2", "'7-2' is reversed")])
    def test_bad_id_spec_raises(self, spec, message):
        with pytest.raises(ValueError) as err:
            parse_id_spec(spec)
        assert message in str(err.value)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_layered_configs(self, tmp_path, data_dir, configs_dir, preset):
        base = base_config(tmp_path, data_dir)
        config = read_config([base, os.path.join(configs_dir,
                                                 preset + ".cfg")])
        assert config.recognizer == PRESETS[preset]
        assert config.seed == 13

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("mystery = 3\n")
        with pytest.raises(PipelineError):
            read_config([str(path)])

    def test_overlapping_splits_rejected(self, corpus):
        with pytest.raises(PipelineError) as err:
            list(split_records(corpus, "1-40", "", "40-60"))
        assert "split" in str(err.value)

    def test_empty_test_split_rejected(self, corpus):
        with pytest.raises(PipelineError) as err:
            list(split_records(corpus, "1-40", "", "90-99"))
        assert "empty test split" in str(err.value)


class TestSubcommands:
    def test_split_writes_partitions(self, tmp_path, data_dir):
        out = tmp_path / "splits"
        code = main(["split", "--treebank",
                     os.path.join(data_dir, "treebank.txt"),
                     "--train", "1-40", "--dev", "41-45", "--test", "46-60",
                     "--output-dir", str(out)])
        assert code == 0
        assert len(read_treebank(str(out / "treebank_train.txt"))) == 40
        assert len(read_treebank(str(out / "treebank_test.txt"))) == 15

    def test_stage_chain_matches_pipeline(self, tmp_path, data_dir):
        """recognize -> collapse -> train -> parse -> eval, chained by files."""
        treebank = os.path.join(data_dir, "treebank.txt")
        lexicon = os.path.join(data_dir, "lexicon.tsv")
        occ = tmp_path / "occ.tsv"
        assert main(["recognize", "--treebank", treebank, "--lexicon", lexicon,
                     "--preset", "rec1", "--output", str(occ)]) == 0
        assert occ.exists()

        collapsed = tmp_path / "collapsed"
        assert main(["collapse", "--treebank", treebank,
                     "--occurrences", str(occ),
                     "--output-dir", str(collapsed)]) == 0
        stats = (collapsed / "collapse_stats.tsv").read_text()
        assert stats.startswith("# id\tkept\tdiscarded\tcycles\n")

        model = tmp_path / "model.tsv"
        assert main(["train", "--treebank",
                     str(collapsed / "treebank_b.txt"),
                     "--smoothing", "0.1", "--output", str(model)]) == 0

        tokens = tmp_path / "tokens.txt"
        collapsed_records = read_treebank(str(collapsed / "treebank_b.txt"))
        from ccgmwe.treebank import write_tokens
        write_tokens(str(tokens), [r.tokens for r in collapsed_records[:5]])
        parsed = tmp_path / "parsed.deps"
        assert main(["parse", "--model", str(model), "--tokens", str(tokens),
                     "--output", str(parsed)]) == 0
        assert len(read_dependencies(str(parsed))) == 5

        gold = tmp_path / "gold.deps"
        assert main(["extract-deps", "--treebank",
                     str(collapsed / "treebank_b.txt"),
                     "--output", str(gold)]) == 0

    def test_eval_and_sigtest(self, tmp_path, fixtures_dir, capsys):
        dep1 = os.path.join(fixtures_dir, "fig_dep1.deps")
        per_sentence = tmp_path / "counts.tsv"
        assert main(["eval", "--system", dep1, "--gold", dep1,
                     "--per-sentence", str(per_sentence)]) == 0
        captured = capsys.readouterr().out
        assert "F1\t1.0000" in captured
        assert per_sentence.read_text() == "dep1\t10\t10\t10\n"
        assert main(["sigtest", "--x", str(per_sentence),
                     "--y", str(per_sentence)]) == 0
        captured = capsys.readouterr().out
        assert "p\t1.0000" in captured

    def test_eval_id_mismatch_fails(self, tmp_path, fixtures_dir, capsys):
        other = tmp_path / "other.deps"
        other.write_text("ID nope\n")
        code = main(["eval", "--system",
                     os.path.join(fixtures_dir, "fig_dep1.deps"),
                     "--gold", str(other)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error [eval] system ids differ from gold's: missing ['nope'], "
            "unknown ['dep1']\n")

    def test_combine_round_trip(self, tmp_path, data_dir, fixtures_dir):
        sentence = os.path.join(fixtures_dir, "fig_dep1_sentence.tb")
        lexicon = os.path.join(data_dir, "lexicon.tsv")
        gold = tmp_path / "gold.deps"
        occ = tmp_path / "occ.tsv"
        tokens = tmp_path / "tokens.txt"
        combined = tmp_path / "combined.deps"
        collapsed = tmp_path / "col"
        assert main(["extract-deps", "--treebank", sentence,
                     "--output", str(gold)]) == 0
        assert main(["recognize", "--treebank", sentence, "--lexicon", lexicon,
                     "--preset", "rec1", "--output", str(occ)]) == 0
        assert main(["collapse", "--treebank", sentence,
                     "--occurrences", str(occ), "--output-dir",
                     str(collapsed)]) == 0
        record = read_treebank(sentence)[0]
        from ccgmwe.treebank import write_tokens
        write_tokens(str(tokens), [record.tokens])
        assert main(["combine", "--out-a", str(gold),
                     "--out-b", str(collapsed / "deps_b.deps"),
                     "--occurrences", str(occ), "--tokens", str(tokens),
                     "--scheme", "medFromA", "--output", str(combined)]) == 0
        out = read_dependencies(str(combined))["dep1"]
        expected = read_dependencies(str(gold))["dep1"]
        assert sorted(d.key() for d in out) == sorted(d.key() for d in expected)

    def test_recognize_tokens_matches_treebank(self, rec1_out, tmp_path,
                                               data_dir):
        test = [r for r in read_treebank(os.path.join(data_dir,
                                                      "treebank.txt"))
                if 46 <= int(r.sid) <= 60]
        treebank = tmp_path / "test.tb"
        write_treebank(str(treebank), test)
        lexicon = os.path.join(data_dir, "lexicon.tsv")
        by_tree, by_tokens = tmp_path / "tree.tsv", tmp_path / "tokens.tsv"
        assert main(["recognize", "--treebank", str(treebank), "--lexicon",
                     lexicon, "--preset", "rec1", "--output",
                     str(by_tree)]) == 0
        assert main(["recognize", "--tokens",
                     str(rec1_out / "tokens_test.txt"), "--lexicon", lexicon,
                     "--preset", "rec1", "--output", str(by_tokens)]) == 0
        numbered = {str(n): record.sid for n, record in enumerate(test, 1)}
        found = read_occurrences(str(by_tokens))
        assert set(found) <= set(numbered)
        assert {numbered[n]: occs for n, occs in found.items()} == \
            read_occurrences(str(by_tree))

    def test_parse_repeated_line_is_parsed_once_and_written_per_id(
            self, rec1_out, tmp_path, monkeypatch):
        first = (rec1_out / "tokens_test.txt").read_text().splitlines()[0]
        tokens, ids = tmp_path / "tokens.txt", tmp_path / "ids.txt"
        tokens.write_text("%s\n%s\n" % (first, first))
        ids.write_text("46\n99\n")
        calls = []
        real_parse = parser.parse

        def counting_parse(model, words):
            calls.append(tuple(words))
            return real_parse(model, words)

        monkeypatch.setattr(parser, "parse", counting_parse)
        output, trees = tmp_path / "p.deps", tmp_path / "p.tb"
        assert main(["parse", "--model", str(rec1_out / "model_a.tsv"),
                     "--tokens", str(tokens), "--ids", str(ids),
                     "--output", str(output), "--trees", str(trees)]) == 0
        assert calls == [tuple(first.split())]
        records = read_treebank(str(trees))
        assert [r.sid for r in records] == ["46", "99"]
        assert records[0].tree == records[1].tree
        assert records[0].tokens == records[1].tokens == first.split()
        blocks = read_dependencies(str(output))
        assert list(blocks) == ["46", "99"]
        assert blocks["46"] == blocks["99"] != []

    def test_parse_trees_give_the_output_dependencies(self, rec1_out,
                                                      tmp_path):
        model, tokens = rec1_out / "model_a.tsv", rec1_out / "tokens_test.txt"
        output, trees = tmp_path / "p.deps", tmp_path / "p.tb"
        assert main(["parse", "--model", str(model), "--tokens", str(tokens),
                     "--output", str(output), "--trees", str(trees)]) == 0
        sentences = dict(enumerate(read_tokens(str(tokens)), 1))
        loaded = load_model(str(model))
        parses = [str(n) for n, words in sentences.items()
                  if parse(loaded, words).tree is not None]
        records = read_treebank(str(trees))
        assert [r.sid for r in records] == parses and parses
        assert all(r.tokens == sentences[int(r.sid)] for r in records)
        extracted = tmp_path / "x.deps"
        assert main(["extract-deps", "--treebank", str(trees),
                     "--output", str(extracted)]) == 0
        blocks = read_dependencies(str(output))
        assert read_dependencies(str(extracted)) == {
            sid: blocks[sid] for sid in parses}

    def test_eval_labeled_compares_functor_category(self, tmp_path, capsys):
        gold, system = tmp_path / "gold.deps", tmp_path / "system.deps"
        gold.write_text("ID 1\n1\t2\t(S\\NP)/NP\t1\tJohn\tbuys\n")
        system.write_text("ID 1\n1\t2\tS\\NP\t1\tJohn\tbuys\n")
        argv = ["eval", "--system", str(system), "--gold", str(gold)]
        assert main(argv) == 0
        assert "correct\t1\n" in capsys.readouterr().out
        assert main(argv + ["--labeled"]) == 0
        assert "correct\t0\n" in capsys.readouterr().out

    def test_missing_file_gives_nonzero_exit(self, tmp_path):
        assert main(["train", "--treebank", str(tmp_path / "nope.txt"),
                     "--output", str(tmp_path / "m.tsv")]) == 1


class TestStageChecks:
    def combine(self, out, tokens, result, scheme="medFromA",
                out_b="out_b_full.deps"):
        return main(["combine", "--out-a", str(out / "out_a.deps"),
                     "--out-b", str(out / out_b),
                     "--occurrences", str(out / "occurrences.tsv"),
                     "--tokens", str(tokens), "--scheme", scheme,
                     "--output", str(result)])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_combine_rebuilds_full_combination(self, rec1_out, tmp_path,
                                               scheme, capsys):
        result = tmp_path / "combined.deps"
        assert self.combine(rec1_out, rec1_out / "tokens_test.txt", result,
                            scheme) == 0
        assert result.read_bytes() == \
            (rec1_out / ("combined_full_%s.deps" % scheme)).read_bytes()
        assert capsys.readouterr().err == ""

    def test_combine_warns_of_out_b_on_other_tokens(self, rec1_out, tmp_path,
                                                    capsys):
        """out_a passed as --out-b is on the original tokens, so every
        sentence with an MWE is named on stderr; out_b_full is on the
        tokens these occurrences collapse to, so it draws no warning."""
        assert self.combine(rec1_out, rec1_out / "tokens_test.txt",
                            tmp_path / "c.deps", out_b="out_a.deps") == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == (
            "warning [combine] %s sentence 46 has 'Spoon' at token 2, but "
            "the occurrences collapse it to: mr.+spoon is chairman of "
            "elsevier+n.v. , the big publishing group .; its combination is "
            "wrong" % (rec1_out / "out_a.deps"))
        assert [line.split()[4] for line in lines] == [
            "46", "47", "48", "49", "50", "51", "53", "55", "57"]

    @pytest.mark.parametrize("edit", ["word", "index"])
    @pytest.mark.parametrize("side", ["out-a", "out-b"])
    def test_combine_checks_endpoint_words(self, rec1_out, tmp_path, capsys,
                                           side, edit):
        """Sentence 46's first edge gets another word, or an index past the
        sentence's last token: in --out-a that stops combine, in --out-b it
        draws a warning."""
        out = tmp_path / "out"
        out.mkdir()
        for name in ("out_a.deps", "out_b_full.deps", "occurrences.tsv"):
            (out / name).write_bytes((rec1_out / name).read_bytes())
        deps = out / ("out_a.deps" if side == "out-a" else "out_b_full.deps")
        header, first, rest = deps.read_text().split("\n", 2)
        fields = first.split("\t")
        if edit == "word":
            fields[4] = "x"
        else:
            fields[0] = "99"
        deps.write_text("\n".join([header, "\t".join(fields), rest]))
        tokens = rec1_out / "tokens_test.txt"
        code = self.combine(out, tokens, tmp_path / "c.deps")
        endpoint = (fields[4], int(fields[0]))
        if side == "out-a":
            assert code == 1
            assert capsys.readouterr().err == (
                "error [combine] %s line 1 has no %r at token %d (sentence "
                "46)\n" % (tokens, *endpoint))
        else:
            assert code == 0
            assert capsys.readouterr().err == (
                "warning [combine] %s sentence 46 has %r at token %d, but the "
                "occurrences collapse it to: mr.+spoon is chairman of "
                "elsevier+n.v. , the big publishing group .; its combination "
                "is wrong\n" % (deps, *endpoint))

    def test_combine_short_token_file_fails(self, rec1_out, tmp_path, capsys):
        tokens = tmp_path / "short.txt"
        lines = (rec1_out / "tokens_test.txt").read_text().splitlines()
        tokens.write_text("".join(line + "\n" for line in lines[:3]))
        assert self.combine(rec1_out, tokens, tmp_path / "c.deps") == 1
        err = capsys.readouterr().err
        assert err == ("error [combine] %s has 3 token lines for 15 sentences"
                       " of out_a\n" % tokens)

    def test_combine_reversed_token_file_fails(self, rec1_out, tmp_path,
                                               capsys):
        tokens = tmp_path / "reversed.txt"
        lines = (rec1_out / "tokens_test.txt").read_text().splitlines()
        tokens.write_text("".join(line + "\n" for line in reversed(lines)))
        assert self.combine(rec1_out, tokens, tmp_path / "c.deps") == 1
        err = capsys.readouterr().err
        assert err.startswith("error [combine] %s line 1 has no " % tokens)
        assert err.endswith(" (sentence 46)\n")

    def test_combine_changed_word_fails(self, rec1_out, tmp_path, capsys):
        tokens = tmp_path / "changed.txt"
        text = (rec1_out / "tokens_test.txt").read_text()
        tokens.write_text(text.replace("Mr. Spoon", "Mr. Spoons", 1))
        assert self.combine(rec1_out, tokens, tmp_path / "c.deps") == 1
        assert capsys.readouterr().err == (
            "error [combine] %s line 1 has no 'Spoon' at token 2 "
            "(sentence 46)\n" % tokens)

    def test_combine_rejects_overlapping_occurrences(self, rec1_out, tmp_path,
                                                     capsys):
        occurrences = tmp_path / "occ.tsv"
        occurrences.write_text("46\t0,1\tmr.+spoon\tproper-noun\n"
                               "46\t1,2\tspoon+is\tgeneral\n")
        assert main(["combine", "--out-a", str(rec1_out / "out_a.deps"),
                     "--out-b", str(rec1_out / "out_b_full.deps"),
                     "--occurrences", str(occurrences),
                     "--tokens", str(rec1_out / "tokens_test.txt"),
                     "--scheme", "rightmostMed",
                     "--output", str(tmp_path / "c.deps")]) == 1
        assert capsys.readouterr().err == (
            "error [combine] occurrences overlap at indices [1] "
            "(sentence 46)\n")

    def test_collapse_rejects_orphan_occurrences(self, tmp_path, data_dir,
                                                 capsys):
        occ = tmp_path / "occ.tsv"
        occ.write_text("99\t0,1\tmr.+spoon\tproper-noun\n")
        assert main(["collapse", "--treebank",
                     os.path.join(data_dir, "treebank.txt"),
                     "--occurrences", str(occ),
                     "--output-dir", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == (
            "error [collapse] occurrences for sentence ids not in the "
            "treebank: 99\n")

    def test_collapse_rejects_occurrence_of_other_units(self, tmp_path,
                                                         data_dir, capsys):
        treebank = os.path.join(data_dir, "treebank.txt")
        occ = tmp_path / "occ.tsv"
        assert main(["recognize", "--treebank", treebank, "--lexicon",
                     os.path.join(data_dir, "lexicon.tsv"), "--preset", "rec1",
                     "--output", str(occ)]) == 0
        lines = occ.read_text().splitlines(keepends=True)
        assert lines[0] == "1\t0,1\tmr.+vinken\tproper-noun\n"
        occ.write_text("".join(["1\t0,1\tfoo+bar\tproper-noun\n"] + lines[1:]))
        assert main(["collapse", "--treebank", treebank,
                     "--occurrences", str(occ),
                     "--output-dir", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == (
            "error [collapse] occurrence 'foo+bar' at 0,1 does not match the "
            "sentence's units 'mr.+vinken' (sentence 1)\n")

    def test_collapse_rejects_overlapping_occurrences(self, tmp_path,
                                                      data_dir, capsys):
        occ = tmp_path / "occ.tsv"
        occ.write_text("1\t0,1\tmr.+vinken\tproper-noun\n"
                       "1\t1,2\tvinken+is\tgeneral\n")
        assert main(["collapse", "--treebank",
                     os.path.join(data_dir, "treebank.txt"),
                     "--occurrences", str(occ),
                     "--output-dir", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == (
            "error [collapse] occurrences overlap at indices [1] "
            "(sentence 1)\n")

    def test_collapse_rejects_occurrence_outside_its_sentence(
            self, tmp_path, data_dir, capsys):
        occ = tmp_path / "occ.tsv"
        occ.write_text("1\t12,13\tx+y\tgeneral\n")     # sentence 1 has 13
        assert main(["collapse", "--treebank",
                     os.path.join(data_dir, "treebank.txt"),
                     "--occurrences", str(occ),
                     "--output-dir", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == (
            "error [collapse] occurrence 'x+y' outside sentence of 13 tokens "
            "(sentence 1)\n")

    def test_combine_rejects_occurrence_of_other_units(self, rec1_out,
                                                        tmp_path, capsys):
        occurrences = tmp_path / "occ.tsv"
        text = (rec1_out / "occurrences.tsv").read_text()
        assert "46\t0,1\tmr.+spoon\tproper-noun\n" in text
        occurrences.write_text(text.replace("46\t0,1\tmr.+spoon\t",
                                            "46\t0,1\tmr.+vinken\t"))
        assert main(["combine", "--out-a", str(rec1_out / "out_a.deps"),
                     "--out-b", str(rec1_out / "out_b_full.deps"),
                     "--occurrences", str(occurrences),
                     "--tokens", str(rec1_out / "tokens_test.txt"),
                     "--scheme", "rightmostMed",
                     "--output", str(tmp_path / "c.deps")]) == 1
        assert capsys.readouterr().err == (
            "error [combine] occurrence 'mr.+vinken' at 0,1 does not match the "
            "sentence's units 'mr.+spoon' (sentence 46)\n")

    def test_collapse_rejects_dependencies_for_other_ids(self, tmp_path,
                                                         data_dir, capsys):
        treebank = os.path.join(data_dir, "treebank.txt")
        deps = tmp_path / "gold.deps"
        assert main(["extract-deps", "--treebank", treebank,
                     "--output", str(deps)]) == 0
        text = deps.read_text()
        deps.write_text(text[:text.index("ID 60\n")])
        occ = tmp_path / "occ.tsv"
        occ.write_text("")
        assert main(["collapse", "--treebank", treebank, "--dependencies",
                     str(deps), "--occurrences", str(occ),
                     "--output-dir", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err == (
            "error [collapse] dependency ids differ from the treebank's: "
            "missing ['60'], unknown []\n")

    def test_malformed_occurrence_line_names_file(self, tmp_path, data_dir,
                                                  capsys):
        occ = tmp_path / "occ.tsv"
        occ.write_text("1\t0,x\ta+b\tgeneral\n")
        assert main(["collapse", "--treebank",
                     os.path.join(data_dir, "treebank.txt"),
                     "--occurrences", str(occ),
                     "--output-dir", str(tmp_path / "c")]) == 1
        assert capsys.readouterr().err.startswith(
            "error [collapse] %s line 1: invalid literal" % occ)

    def test_malformed_counts_line_names_file(self, tmp_path, capsys):
        counts = tmp_path / "counts.tsv"
        counts.write_text("46\t1\t2\t3\n47\t1\t2\n")
        assert main(["sigtest", "--x", str(counts), "--y", str(counts)]) == 1
        assert capsys.readouterr().err == (
            "error [sigtest] %s line 2: expected id, correct, attempted, "
            "gold\n" % counts)

    @pytest.mark.parametrize("edit,message", [
        (lambda text: text[:text.index("ID 47\n")]
         + text[text.index("ID 48\n"):], "missing ['47'], unknown []"),
        (lambda text: text + "ID 99\n", "missing [], unknown ['99']"),
    ], ids=["missing", "unknown"])
    def test_combine_rejects_out_b_with_other_ids(self, rec1_out, tmp_path,
                                                   capsys, edit, message):
        out = tmp_path / "out"
        out.mkdir()
        for name in ("out_a.deps", "occurrences.tsv"):
            (out / name).write_bytes((rec1_out / name).read_bytes())
        (out / "out_b_full.deps").write_text(
            edit((rec1_out / "out_b_full.deps").read_text()))
        assert self.combine(out, rec1_out / "tokens_test.txt",
                            tmp_path / "c.deps") == 1
        assert capsys.readouterr().err == (
            "error [combine] out_b ids differ from out_a's: %s\n" % message)

    def test_eval_malformed_line_names_file(self, rec1_out, tmp_path, capsys):
        bad = tmp_path / "bad.deps"
        bad.write_text("ID 46\n1\t2\n")
        assert main(["eval", "--system", str(bad),
                     "--gold", str(rec1_out / "gold_a.deps")]) == 1
        assert capsys.readouterr().err == (
            "error [eval] %s line 2: expected 6 tab-separated fields, got 2\n"
            % bad)

    def test_eval_rejects_repeated_sentence_id(self, rec1_out, tmp_path,
                                               capsys):
        system = tmp_path / "system.deps"
        text = (rec1_out / "out_a.deps").read_text()
        system.write_text(text + "ID 46\n")
        assert main(["eval", "--system", str(system),
                     "--gold", str(rec1_out / "gold_a.deps")]) == 1
        assert capsys.readouterr().err == (
            "error [eval] %s line %d: duplicate sentence id 46\n"
            % (system, text.count("\n") + 1))

    def test_sigtest_rejects_repeated_sentence_id(self, tmp_path, capsys):
        counts = tmp_path / "counts.tsv"
        counts.write_text("46\t1\t2\t3\n47\t1\t2\t3\n46\t0\t2\t3\n")
        assert main(["sigtest", "--x", str(counts), "--y", str(counts)]) == 1
        assert capsys.readouterr().err == (
            "error [sigtest] %s line 3: duplicate sentence id 46\n" % counts)

    def test_sigtest_names_mismatched_ids(self, tmp_path, capsys):
        x, y = tmp_path / "x.tsv", tmp_path / "y.tsv"
        x.write_text("46\t1\t2\t3\n47\t1\t2\t3\n")
        y.write_text("46\t1\t2\t3\n48\t1\t2\t3\n")
        assert main(["sigtest", "--x", str(x), "--y", str(y)]) == 1
        assert capsys.readouterr().err == (
            "error [sigtest] Y ids differ from X's: missing ['47'], "
            "unknown ['48']\n")

    @pytest.mark.parametrize("both,message", [
        (False, "one of the arguments --treebank --tokens is required"),
        (True, "argument --tokens: not allowed with argument --treebank"),
    ], ids=["neither", "both"])
    def test_recognize_takes_exactly_one_input(self, tmp_path, data_dir,
                                               capsys, both, message):
        sources = ["--treebank", os.path.join(data_dir, "treebank.txt"),
                   "--tokens", str(tmp_path / "missing.txt")] if both else []
        output = tmp_path / "occ.tsv"
        with pytest.raises(SystemExit) as exc:
            main(["recognize", *sources, "--lexicon",
                  os.path.join(data_dir, "lexicon.tsv"),
                  "--output", str(output)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ccgmwe recognize")
        assert "error: %s\n" % message in err
        assert not output.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--detector", "proper-noun"), ("--filters", "continuous"),
        ("--resolver", "leftmost")])
    def test_recognize_preset_excludes_recognizer_flags(self, tmp_path,
                                                        data_dir, capsys,
                                                        flag, value):
        output = tmp_path / "occ.tsv"
        with pytest.raises(SystemExit) as exc:
            main(["recognize", "--treebank",
                  os.path.join(data_dir, "treebank.txt"), "--lexicon",
                  os.path.join(data_dir, "lexicon.tsv"), "--preset", "rec1",
                  flag, value, "--output", str(output)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: ccgmwe recognize")
        assert err.endswith("error: argument %s: not allowed with argument "
                            "--preset\n" % flag)
        assert not output.exists()

    @pytest.mark.parametrize("command", ["run", "collapse", "split"])
    def test_treebank_with_repeated_id_fails(self, tmp_path, data_dir, capsys,
                                             command):
        text = Path(data_dir, "treebank.txt").read_text()
        treebank = tmp_path / "treebank.txt"
        treebank.write_text(text.replace("ID 47\n", "ID 46\n"))
        line = text[:text.index("ID 47\n")].count("\n") + 1
        (tmp_path / "lexicon.tsv").write_bytes(
            Path(data_dir, "lexicon.tsv").read_bytes())
        out = tmp_path / "out"
        occ = tmp_path / "occ.tsv"
        occ.write_text("")
        argv = {
            "run": ["run", "--config", base_config(tmp_path, str(tmp_path))],
            "collapse": ["collapse", "--treebank", str(treebank),
                         "--occurrences", str(occ), "--output-dir", str(out)],
            "split": ["split", "--treebank", str(treebank), "--train", "1-40",
                      "--test", "46-60", "--output-dir", str(out)],
        }[command]
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error [%s] %s line %d: duplicate sentence id 46\n"
            % ("load" if command == "run" else command, treebank, line))
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "split", "collapse"])
    def test_run_with_malformed_last_tree_fails(self, tmp_path, data_dir,
                                                capsys, monkeypatch, command):
        lines = Path(data_dir, "treebank.txt").read_text().splitlines()
        lines[-1] = lines[-1][:-1]          # the last tree lacks its ")"
        treebank = tmp_path / "treebank.txt"
        treebank.write_text("\n".join(lines) + "\n")
        (tmp_path / "lexicon.tsv").write_bytes(
            Path(data_dir, "lexicon.tsv").read_bytes())
        occ = tmp_path / "occ.tsv"
        occ.write_text("")
        out = tmp_path / "out"
        # each command's per-sentence step, and the stage its error names
        module, step, stage, argv = {
            "run": (recognition, "recognize", "load",
                    ["run", "--config", base_config(tmp_path,
                                                    str(tmp_path))]),
            "split": (treebank_module, "render_treebank", "split",
                      ["split", "--treebank", str(treebank), "--train",
                       "1-40", "--dev", "41-45", "--test", "46-60",
                       "--output-dir", str(out)]),
            "collapse": (recognition, "rebind_tokens", "collapse",
                         ["collapse", "--treebank", str(treebank),
                          "--occurrences", str(occ), "--output-dir",
                          str(out)]),
        }[command]
        stepped = []
        real_step = getattr(module, step)

        def counted(*args):
            stepped.append(args)
            return real_step(*args)

        monkeypatch.setattr(module, step, counted)
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error [%s] %s line %d: unbalanced bracket at column %d\n"
            % (stage, treebank, len(lines), len(lines[-1])))
        assert not out.exists()
        # the command streams: every earlier sentence went through its step
        assert len(stepped) == 59

    def test_parse_rejects_repeated_id(self, rec1_out, tmp_path, capsys):
        tokens = tmp_path / "tokens.txt"
        first = (rec1_out / "tokens_test.txt").read_text().splitlines()[0]
        tokens.write_text("%s\n%s\n" % (first, first))
        ids = tmp_path / "ids.txt"
        ids.write_text("46\n46\n")
        parsed = tmp_path / "parsed.deps"
        assert main(["parse", "--model", str(rec1_out / "model_a.tsv"),
                     "--tokens", str(tokens), "--ids", str(ids),
                     "--output", str(parsed)]) == 1
        assert capsys.readouterr().err == (
            "error [parse] %s line 2: duplicate sentence id 46\n" % ids)
        assert not parsed.exists()

    def test_parse_id_count_mismatch_fails(self, rec1_out, tmp_path, capsys):
        ids = tmp_path / "ids.txt"
        ids.write_text("46\n")
        tokens = rec1_out / "tokens_test.txt"
        assert main(["parse", "--model", str(rec1_out / "model_a.tsv"),
                     "--tokens", str(tokens), "--ids", str(ids),
                     "--output", str(tmp_path / "p.deps")]) == 1
        assert capsys.readouterr().err == (
            "error [parse] %s has 1 ids for 15 sentences in %s\n"
            % (ids, tokens))

    def test_parse_rejects_token_with_parenthesis(self, rec1_out, tmp_path,
                                                  capsys):
        """Such a token would make the --trees output unreadable."""
        tokens = tmp_path / "tokens.txt"
        tokens.write_text("Mr. Vinken is chairman .\n"
                          "Mr. Vinken)x is chairman of Elsevier N.V. , the "
                          "Dutch publishing group .\n")
        parsed, trees = tmp_path / "p.deps", tmp_path / "p.trees"
        assert main(["parse", "--model", str(rec1_out / "model_a.tsv"),
                     "--tokens", str(tokens), "--output", str(parsed),
                     "--trees", str(trees)]) == 1
        assert capsys.readouterr().err == (
            "error [parse] %s line 2: token 'Vinken)x' contains a "
            "parenthesis\n" % tokens)
        assert not parsed.exists()
        assert not trees.exists()


NUMPY_GUARD = textwrap.dedent("""
    import importlib.util
    import os
    import sys

    import ccgmwe.cli
    from ccgmwe.treebank import write_counts

    def numpy_loaded():
        return "numpy" in sys.modules

    assert not numpy_loaded(), "import ccgmwe.cli"
    try:
        ccgmwe.cli.main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0
    assert not numpy_loaded(), "--help"
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", os.path.join("perfbench", "run.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    chain = bench.StageChain(bench.DEFAULT_SEED, sys.argv[1], False)
    commands = []
    for step in chain.steps("op", os.path.join(sys.argv[1], "op")):
        if callable(step):
            step()
            continue
        assert ccgmwe.cli.main(list(step)) == 0, step
        commands.append(step[0])
        assert not numpy_loaded(), commands
    # 2^15 > 1000 iterations: sampled, but 1000 draws for each of the three
    # sentences the systems score differently stay under 2^17
    sampled = list(step)
    sampled[sampled.index("--iterations") + 1] = "1000"
    assert ccgmwe.cli.main(sampled) == 0
    assert not numpy_loaded(), "sampled sigtest under the draw limit"
    # 10,000 iterations of 40 sentences scored differently pass the limit,
    # and only then does numpy load
    x, y = (os.path.join(sys.argv[1], name) for name in ("x.tsv", "y.tsv"))
    write_counts(x, {str(sid): (2, 3, 3) for sid in range(40)})
    write_counts(y, {str(sid): (1, 3, 3) for sid in range(40)})
    assert ccgmwe.cli.main(["sigtest", "--x", x, "--y", y]) == 0
    assert numpy_loaded(), "sampled sigtest over the draw limit"
    print(" ".join(commands))
""")


def test_only_sigtest_loads_numpy(tmp_path, data_dir):
    """The README chain, whose sigtest is exact, runs every subcommand
    without importing numpy, and so does a sampled sigtest of 1,000
    iterations; one whose draws exceed the sampler's limit imports it."""
    root = os.path.dirname(data_dir)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", NUMPY_GUARD, str(tmp_path)],
                          cwd=root, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == (
        "split recognize collapse split train train extract-deps parse parse "
        "combine eval eval sigtest")


SHIPPED_RUNS = textwrap.dedent("""
    import sys

    import ccgmwe.cli

    output = sys.argv[1]
    for preset in sys.argv[2:]:
        assert ccgmwe.cli.main(["run", "--config", "data/configs/base.cfg",
                                "--config", preset, "--config", output]) == 0
        assert "numpy" not in sys.modules, preset
""")


def test_shipped_runs_never_load_numpy(tmp_path, data_dir, configs_dir):
    """run on the shipped corpus samples all four tests of every preset
    (2^15 > 10,000 iterations) without importing numpy."""
    root = os.path.dirname(data_dir)
    output = tmp_path / "output.cfg"
    output.write_text("output = %s\n" % (tmp_path / "out"))
    presets = [os.path.join(configs_dir, "rec%d.cfg" % k) for k in range(1, 6)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", SHIPPED_RUNS, str(output)] + presets,
        cwd=root, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count("Experiment summary") == 5


class TestRun:
    def test_full_run_writes_report_and_artifacts(self, tmp_path, data_dir,
                                                  configs_dir, capsys):
        config = base_config(tmp_path, data_dir)
        rec1 = os.path.join(configs_dir, "rec1.cfg")
        assert main(["run", "--config", config, "--config", rec1]) == 0
        out = tmp_path / "out"
        report = (out / "report.tsv").read_text()
        assert "eval\tA\tbaseline\tA" in report
        assert "stat\tsibling_pct" in report
        assert "sigtest\ttraining-effect" in report
        summary = capsys.readouterr().out
        assert "Experiment summary" in summary
        assert summary.encode() == (out / "summary.txt").read_bytes()
        # artifacts reconsumable by the subcommands
        for name in ("model_a.tsv", "model_b.tsv", "occurrences.tsv",
                     "treebank_b.txt", "out_a.deps", "out_b.deps",
                     "gold_a.deps", "gold_b.deps"):
            assert (out / name).exists(), name
        assert len(read_tokens(str(out / "tokens_test.txt"))) == 15

    def test_failed_stage_writes_nothing(self, tmp_path, data_dir,
                                         configs_dir, capsys, monkeypatch):
        """A stage that fails partway stops the run before any write."""
        real_parse = parse
        model_a = []
        calls_b = []

        def parse_failing_in_parse_b(model, tokens):
            # parse-a parses with model A alone; parse-b is the first pass
            # with another model, and fails on its third sentence
            if not model_a:
                model_a.append(model)
            if model is not model_a[0]:
                calls_b.append(tokens)
                if len(calls_b) == 3:
                    raise ValueError("injected failure")
            return real_parse(model, tokens)

        monkeypatch.setattr("ccgmwe.parser.parse", parse_failing_in_parse_b)
        config = base_config(tmp_path, data_dir)
        rec1 = os.path.join(configs_dir, "rec1.cfg")
        assert main(["run", "--config", config, "--config", rec1]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error [parse-b] injected failure "
                                "(sentence 48)\n")
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("below", [(), ("sub",)], ids=["file", "in-file"])
    def test_output_that_cannot_be_a_directory_fails_first(
            self, tmp_path, data_dir, capsys, monkeypatch, below):
        """The output path is checked before the first stage runs."""
        def read_lexicon(*args):
            pytest.fail("read the lexicon before checking the output path")

        monkeypatch.setattr("ccgmwe.treebank.read_lexicon", read_lexicon)
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        output = blocker.joinpath(*below)
        fragment = tmp_path / "output.cfg"
        fragment.write_text("output = %s\n" % output)
        assert main(["run", "--config", base_config(tmp_path, data_dir),
                     "--config", str(fragment)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error [run] output %s: %s is not a "
                                "directory\n" % (output, blocker))
        assert captured.out == ""
        assert blocker.read_text() == "kept\n"

    def test_artifacts_reconsumable(self, tmp_path, data_dir, configs_dir):
        config = base_config(tmp_path, data_dir)
        rec1 = os.path.join(configs_dir, "rec1.cfg")
        assert main(["run", "--config", config, "--config", rec1]) == 0
        out = tmp_path / "out"
        # every dependency artifact re-reads cleanly
        for name in sorted(os.listdir(out)):
            if name.endswith(".deps"):
                assert read_dependencies(str(out / name)) is not None
        # re-parse the collapsed test tokens with the saved model B: the
        # dependency file must reproduce out_b.deps exactly
        reparsed = tmp_path / "reparsed.deps"
        ids = tmp_path / "ids.txt"
        ids.write_text("".join("%d\n" % i for i in range(46, 61)))
        assert main(["parse", "--model", str(out / "model_b.tsv"),
                     "--tokens", str(out / "tokens_test_collapsed.txt"),
                     "--ids", str(ids), "--output", str(reparsed)]) == 0
        assert reparsed.read_text() == (out / "out_b.deps").read_text()
        # the per-pair count files feed the sigtest subcommand directly and
        # reproduce the p-value of the run report
        assert main(["sigtest",
                     "--x", str(out / "counts_training-effect_x.tsv"),
                     "--y", str(out / "counts_training-effect_y.tsv"),
                     "--iterations", "2000", "--seed", "13"]) == 0
        report = (out / "report.tsv").read_text()
        p_line = [l for l in report.splitlines()
                  if l.startswith("sigtest\ttraining-effect")][0]
        import io
        from contextlib import redirect_stdout
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            main(["sigtest",
                  "--x", str(out / "counts_training-effect_x.tsv"),
                  "--y", str(out / "counts_training-effect_y.tsv"),
                  "--iterations", "2000", "--seed", "13"])
        assert buffer.getvalue().splitlines()[0] == \
            "p\t" + p_line.split("\t")[2]

    @pytest.mark.parametrize("spec", ["60-46", "46-x"])
    def test_bad_split_spec_exits_without_traceback(self, tmp_path, data_dir,
                                                    capsys, spec):
        config = base_config(tmp_path, data_dir)
        bad = tmp_path / "bad.cfg"
        bad.write_text(Path(config).read_text().replace("test = 46-60",
                                                        "test = %s" % spec))
        assert main(["run", "--config", str(bad)]) == 1
        assert main(["split", "--treebank",
                     os.path.join(data_dir, "treebank.txt"), "--train", "1-40",
                     "--test", spec, "--output-dir", str(tmp_path / "s")]) == 1
        err = capsys.readouterr().err
        # "[split]" from `run` is the PipelineError stage, not the command
        assert err.count("error [split] test split: id range %r" % spec) == 2
        assert "Traceback" not in err

    def test_empty_test_split_aborts_with_stage(self, tmp_path, data_dir,
                                                capsys):
        config = base_config(tmp_path, data_dir).replace("exp.cfg", "exp.cfg")
        bad = tmp_path / "bad.cfg"
        bad.write_text(Path(config).read_text().replace("test = 46-60",
                                                        "test = 90-99"))
        assert main(["run", "--config", str(bad)]) == 1
        assert "[split]" in capsys.readouterr().err


class TestMalformedInput:
    """Every malformed input exits 1 with one line naming the file and
    line, or the config key, and no traceback."""

    def expect(self, capsys, argv, message):
        assert main(argv) == 1
        assert capsys.readouterr().err == message + "\n"

    def test_train_on_malformed_treebank_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.tb"
        bad.write_text("ID 1\n(N (N/N a) (N b))\n\nID 2\n(N (N/N a) (N b)\n")
        self.expect(capsys, ["train", "--treebank", str(bad),
                             "--output", str(tmp_path / "m.tsv")],
                    "error [train] %s line 5: unbalanced bracket at column 16"
                    % bad)

    def test_train_on_treebank_that_is_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.tb"
        bad.write_bytes(b"ID 1\n(N a)\nID 2\n(N \xff)\n")
        self.expect(capsys, ["train", "--treebank", str(bad),
                             "--output", str(tmp_path / "m.tsv")],
                    "error [train] %s line 4: 'utf-8' codec can't decode byte "
                    "0xff in position 3: invalid start byte" % bad)

    def test_train_on_treebank_ending_without_tree(self, tmp_path, capsys):
        bad = tmp_path / "bad.tb"
        bad.write_text("ID 1\n(N a)\nID 2\n")
        self.expect(capsys, ["train", "--treebank", str(bad),
                             "--output", str(tmp_path / "m.tsv")],
                    "error [train] %s line 3: sentence 2 has no tree" % bad)

    def test_recognize_rejects_id_with_whitespace(self, tmp_path, data_dir,
                                                   capsys):
        bad = tmp_path / "bad.tb"
        bad.write_text("ID a\tb\n(N (N/N Mr.) (N Vinken))\n")
        self.expect(capsys, ["recognize", "--treebank", str(bad), "--lexicon",
                             os.path.join(data_dir, "lexicon.tsv"), "--preset",
                             "rec3", "--output", str(tmp_path / "occ.tsv")],
                    "error [recognize] %s line 1: sentence id 'a\\tb' "
                    "contains whitespace" % bad)
        assert not (tmp_path / "occ.tsv").exists()

    @pytest.mark.parametrize("command", ["split", "train", "extract-deps"])
    def test_tree_deeper_than_limit_fails(self, tmp_path, capsys, command):
        def treebank(levels):
            # levels - 2 unary S nodes over a noun phrase of two leaves
            path = tmp_path / ("deep%d.tb" % levels)
            path.write_text("ID 1\n(S (NP (N/N Mr.) (N Vinken)) (S\\NP left))"
                            "\nID 2\n%s(NP (N/N Mr.) (N Vinken))%s\n"
                            % ("(S " * (levels - 2), ")" * (levels - 2)))
            return path

        def argv(path):
            out = str(tmp_path / (path.stem + ".out"))
            return {"split": ["split", "--treebank", str(path), "--train",
                              "1", "--test", "2", "--output-dir", out],
                    "train": ["train", "--treebank", str(path),
                              "--output", out],
                    "extract-deps": ["extract-deps", "--treebank", str(path),
                                     "--output", out]}[command]

        assert main(argv(treebank(MAX_TREE_DEPTH))) == 0
        deep = treebank(250)
        self.expect(capsys, argv(deep),
                    "error [%s] %s line 4: tree nested deeper than 200 levels "
                    "at column 600" % (command, deep))
        assert not (tmp_path / "deep250.out").exists()

    @pytest.mark.parametrize("line,reason", [
        ("mr spoon\tbogus\t1\t1;1", "unknown kind 'bogus'"),
        ("mr spoon\tgeneral\tx\t1;1",
         "invalid literal for int() with base 10: 'x'"),
        ("mr spoon\tgeneral\t1", "expected 4 tab-separated fields")])
    def test_recognize_with_malformed_lexicon_line(self, tmp_path, data_dir,
                                                   capsys, line, reason):
        bad = tmp_path / "bad.lex"
        bad.write_text("# units\tkind\tcount\tunit counts\n" + line + "\n")
        self.expect(capsys, ["recognize", "--treebank",
                             os.path.join(data_dir, "treebank.txt"),
                             "--lexicon", str(bad),
                             "--output", str(tmp_path / "occ.tsv")],
                    "error [recognize] %s line 2: %s" % (bad, reason))

    @pytest.mark.parametrize("row,reason", [
        ("lex\tN\tfoo\tabc", "could not convert string to float: 'abc'"),
        ("meta\trare_threshold\t\tinf",
         "invalid literal for int() with base 10: 'inf'"),
        ("tokpos\tfoo\tNN\t1.5",
         "invalid literal for int() with base 10: '1.5'"),
        ("bogus\ta\tb\t1", "unknown table 'bogus'"),
        ("rule\tN\t<LEX>\t0", "probability must be a finite number > 0, "
                               "got '0'"),
        ("lex\tN\tfoo\t-0.5", "probability must be a finite number > 0, "
                              "got '-0.5'"),
        ("backoff\tNN\tN\tnan", "probability must be a finite number > 0, "
                               "got 'nan'"),
        ("root\t\tS\t-0.5", "probability must be a finite number > 0, "
                            "got '-0.5'"),
        ("meta\trare_treshold\t\t3", "unknown meta key 'rare_treshold'"),
        ("meta\trare_threshold\t\t0",
         "rare_threshold must be at least 1, got 0"),
        ("meta\tsmoothing\t\tnan",
         "smoothing must be a finite number >= 0, got nan"),
        ("meta\tsmoothing\t\t-1",
         "smoothing must be a finite number >= 0, got -1.0"),
        ("tokpos\tfoo\tNN\t-7", "tokpos count must be at least 1, got -7")])
    def test_parse_with_malformed_model_line(self, rec1_out, tmp_path,
                                             capsys, row, reason):
        rows = (rec1_out / "model_a.tsv").read_text().splitlines()
        rows[9] = row
        model = tmp_path / "bad_model.tsv"
        model.write_text("\n".join(rows) + "\n")
        self.expect(capsys, ["parse", "--model", str(model), "--tokens",
                             str(rec1_out / "tokens_test.txt"),
                             "--output", str(tmp_path / "p.deps")],
                    "error [parse] %s line 10: %s" % (model, reason))

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_sigtest_rejects_iterations_below_one(self, tmp_path, capsys,
                                                  value):
        counts = tmp_path / "counts.tsv"
        counts.write_text("46\t1\t2\t3\n47\t0\t2\t3\n")
        self.expect(capsys, ["sigtest", "--x", str(counts), "--y",
                             str(counts), "--iterations", value],
                    "error [sigtest] iterations must be at least 1, got %s"
                    % value)

    @pytest.mark.parametrize("iterations", ["4", "3"])
    def test_sigtest_rejects_negative_seed(self, tmp_path, capsys,
                                           iterations):
        # two sentences: 4 iterations enumerate all 2^2 swap patterns
        # exhaustively, 3 sample them
        counts = tmp_path / "counts.tsv"
        counts.write_text("46\t1\t2\t3\n47\t0\t2\t3\n")
        self.expect(capsys, ["sigtest", "--x", str(counts), "--y",
                             str(counts), "--iterations", iterations,
                             "--seed", "-1"],
                    "error [sigtest] seed must be at least 0, got -1")

    def test_run_rejects_zero_iterations(self, tmp_path, data_dir, capsys):
        config = base_config(tmp_path, data_dir, "iterations = 0\n")
        self.expect(capsys, ["run", "--config", config],
                    "error [config] iterations: iterations must be at least "
                    "1, got 0")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value,shown", [("-1", "-1.0"), ("nan", "nan"),
                                             ("inf", "inf")])
    def test_train_rejects_bad_smoothing(self, tmp_path, data_dir, capsys,
                                         value, shown):
        model = tmp_path / "m.tsv"
        self.expect(capsys, ["train", "--treebank",
                             os.path.join(data_dir, "treebank.txt"),
                             "--smoothing", value, "--output", str(model)],
                    "error [train] smoothing must be a finite number >= 0, "
                    "got %s" % shown)
        assert not model.exists()

    @pytest.mark.parametrize("line,message", [
        ("smoothing = abc", "smoothing: could not convert string to float: "
                            "'abc'"),
        ("smoothing = -1", "smoothing: smoothing must be a finite number >= "
                           "0, got -1.0"),
        ("smoothing = nan", "smoothing: smoothing must be a finite number >= "
                            "0, got nan"),
        ("seed = 1.5", "seed: invalid literal for int() with base 10: '1.5'"),
        ("detector = bogus", "detector: unknown detector 'bogus'"),
        ("filters = continuous, odd", "filters: unknown filter 'odd'"),
        ("resolver = bogus", "resolver: unknown resolver 'bogus'"),
        ("seed = -1", "seed: seed must be at least 0, got -1")])
    def test_run_names_the_bad_config_key(self, tmp_path, data_dir, capsys,
                                          line, message):
        config = base_config(tmp_path, data_dir, line + "\n")
        self.expect(capsys, ["run", "--config", config],
                    "error [config] " + message)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line,reason", [
        ("mystery = 3", "unknown key 'mystery'"),
        ("schemes = medFromA", "unknown key 'schemes'"),
        ("smoothing 0.1", "expected key=value")])
    def test_run_names_the_bad_config_line(self, tmp_path, data_dir, capsys,
                                           line, reason):
        config = base_config(tmp_path, data_dir, "# extra\n" + line + "\n")
        self.expect(capsys, ["run", "--config", config],
                    "error [config] %s line 11: %s" % (config, reason))


class TestRunGcScope:
    """`run` turns the cyclic collector off only while run_pipeline runs;
    the caller's collector state and thresholds are back afterwards,
    however it exits."""

    CUSTOM = (1234, 11, 12)

    @pytest.fixture(autouse=True)
    def custom_thresholds(self):
        saved = gc.get_threshold()
        gc.set_threshold(*self.CUSTOM)
        yield
        gc.set_threshold(*saved)
        gc.enable()

    @pytest.fixture
    def seen(self, monkeypatch):
        """(enabled, thresholds) each time run_pipeline is entered."""
        seen = []
        real_run = pipeline.run_pipeline

        def recording_run(config):
            seen.append((gc.isenabled(), gc.get_threshold()))
            return real_run(config)

        monkeypatch.setattr(pipeline, "run_pipeline", recording_run)
        return seen

    def test_run_restores_the_collector(self, tmp_path, data_dir,
                                        configs_dir, seen):
        assert main(["run", "--config", base_config(tmp_path, data_dir),
                     "--config", os.path.join(configs_dir, "rec1.cfg")]) == 0
        assert seen == [(False, self.CUSTOM)]
        assert gc.isenabled()
        assert gc.get_threshold() == self.CUSTOM

    def test_run_leaves_a_disabled_collector_off(self, tmp_path, data_dir,
                                                 configs_dir, seen):
        gc.disable()
        assert main(["run", "--config", base_config(tmp_path, data_dir),
                     "--config", os.path.join(configs_dir, "rec1.cfg")]) == 0
        assert seen == [(False, self.CUSTOM)]
        assert not gc.isenabled()

    @pytest.mark.parametrize("line,entered", [
        ("mystery = 3", False), ("output = %(blocker)s", True)],
        ids=["unknown-key", "output-is-a-file"])
    def test_failed_run_restores_the_collector(self, tmp_path, data_dir,
                                               capsys, seen, line, entered):
        blocker = tmp_path / "blocker"
        blocker.write_text("kept\n")
        config = base_config(tmp_path, data_dir,
                             line % {"blocker": blocker} + "\n")
        assert main(["run", "--config", config]) == 1
        assert capsys.readouterr().err.startswith("error [")
        assert seen == ([(False, self.CUSTOM)] if entered else [])
        assert gc.isenabled()
        assert gc.get_threshold() == self.CUSTOM

    def test_run_pipeline_keeps_the_collector(self, tmp_path, data_dir,
                                              configs_dir, monkeypatch):
        during = set()
        real_parse = parser.parse

        def recording_parse(model, tokens):
            during.add((gc.isenabled(), gc.get_threshold()))
            return real_parse(model, tokens)

        monkeypatch.setattr(parser, "parse", recording_parse)
        run_pipeline(read_config([base_config(tmp_path, data_dir),
                                  os.path.join(configs_dir, "rec1.cfg")]))
        assert during == {(True, self.CUSTOM)}
        assert gc.isenabled()
        assert gc.get_threshold() == self.CUSTOM
