import os
import random
from pathlib import Path

import pytest

from ccgmwe.categories import derivation_rule, parse_category, render
from ccgmwe.collapse import collapse_tree
from ccgmwe.recognition import MweOccurrence
from ccgmwe.treebank import (MAX_TREE_DEPTH, Dependency, DerivationTree,
                             LexiconError, TreebankFormatError, check_ids,
                             iter_treebank, leaves, parse_tree, read_counts,
                             read_dependencies, read_ids, read_lexicon,
                             read_occurrences, read_tokens, read_treebank,
                             render_tree, write_counts, write_dependencies,
                             write_tokens, write_treebank)

from test_collapse import assert_matches_reference


def is_derivable(node):
    """Whether a node's category follows from its children by application
    or composition.  Leaves and unary nodes count as derivable; collapsed
    or punctuation/apposition nodes in synthetic trees may not be."""
    if len(node.children) != 2:
        return True
    left, right = node.children
    return derivation_rule(left.category, right.category,
                           node.category) is not None


class TestTreeParsing:
    def test_original_subtree_figure(self, fixtures_dir):
        records = read_treebank(os.path.join(fixtures_dir, "fig_original_subtree.tb"))
        assert len(records) == 1
        tree = records[0].tree
        assert render(tree.category) == "N"
        assert leaves(tree) == [(0, "Publishers"), (1, "Information"), (2, "Bureau")]

    def test_single_leaf_tree(self):
        tree = parse_tree("(N publishers+information+bureau)")
        assert tree.is_leaf()
        assert leaves(tree) == [(0, "publishers+information+bureau")]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tb"
        path.write_text("")
        assert read_treebank(str(path)) == []

    def test_dep1_sentence_has_twelve_leaves(self, fixtures_dir):
        record = read_treebank(os.path.join(fixtures_dir, "fig_dep1_sentence.tb"))[0]
        assert len(record.tokens) == 12
        assert record.tokens[0] == "Mr."
        assert record.tokens[-1] == "group"

    def test_equal_tokens_are_one_object(self, data_dir):
        first = {}
        repeated = 0
        for record in read_treebank(os.path.join(data_dir, "treebank.txt")):
            for token in record.tokens:
                repeated += token in first
                assert first.setdefault(token, token) is token
        # far more tokens than distinct ones, repeated across sentences
        assert repeated > 2 * len(first)

    def test_nested_category_in_node(self):
        tree = parse_tree("((S\\NP)\\(S\\NP) (((S\\NP)\\(S\\NP))/PP according)"
                          " (PP (PP/NP to) (NP (N bureau))))")
        assert render(tree.category) == "(S\\NP)\\(S\\NP)"
        assert [t for _, t in leaves(tree)] == ["according", "to", "bureau"]

    @pytest.mark.parametrize("bad", [
        "(N", "N)", "(N (N/N a) (N b) (N c) (N d))", "()", "(N )",
        "(N (N/N a) b)", "(N a(b)"])
    def test_malformed_trees(self, bad):
        with pytest.raises(TreebankFormatError):
            parse_tree(bad)

    def test_three_children_rejected(self):
        with pytest.raises(TreebankFormatError):
            parse_tree("(N (N a) (N b) (N c))")

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.tb"
        path.write_text("ID 1\n(N (N/N a)\n")
        with pytest.raises(TreebankFormatError) as err:
            read_treebank(str(path))
        assert "line 2" in str(err.value)

    def test_reader_yields_each_record_before_a_later_fault(self, tmp_path):
        path = tmp_path / "bad.tb"
        path.write_text("ID 1\n(N a)\nID 2\n(N (N/N b)\n")
        records = iter_treebank(str(path))
        assert next(records).tokens == ["a"]
        with pytest.raises(TreebankFormatError, match="line 4: unbalanced"):
            next(records)

    def test_missing_id_header(self, tmp_path):
        path = tmp_path / "bad.tb"
        path.write_text("(N x)\n")
        with pytest.raises(TreebankFormatError):
            read_treebank(str(path))

    def test_repeated_sentence_id(self, tmp_path):
        path = tmp_path / "bad.tb"
        path.write_text("ID 46\n(N x)\nID 47\n(N y)\nID 46\n(N z)\n")
        with pytest.raises(TreebankFormatError) as err:
            read_treebank(str(path))
        assert str(err.value) == "%s line 5: duplicate sentence id 46" % path

    def test_depth_limit(self):
        def chain(levels):
            return "(S " * (levels - 1) + "(N x)" + ")" * (levels - 1)

        assert leaves(parse_tree(chain(MAX_TREE_DEPTH))) == [(0, "x")]
        with pytest.raises(TreebankFormatError) as err:
            parse_tree(chain(MAX_TREE_DEPTH + 1))
        assert str(err.value) == ("tree nested deeper than 200 levels at "
                                  "column 600")

    @pytest.mark.parametrize("reader,text", [
        (read_treebank, "ID 4 6\n(N x)\n"), (read_dependencies, "ID a\tb\n"),
        (read_ids, "4 6\n"), (read_counts, "4 6\t1\t1\t1\n")],
        ids=["treebank", "dependencies", "ids", "counts"])
    def test_sentence_id_with_whitespace(self, tmp_path, reader, text):
        path = tmp_path / "ids"
        path.write_text(text)
        with pytest.raises(TreebankFormatError) as err:
            reader(str(path))
        assert str(err.value).startswith("%s line 1: sentence id " % path)
        assert str(err.value).endswith(" contains whitespace")

    def test_derivability_flag(self):
        assert is_derivable(parse_tree("(S\\NP ((S\\NP)/NP buys) (NP shares))"))
        assert is_derivable(parse_tree("(NP (N word))"))
        assert is_derivable(parse_tree("(N publishers+information+bureau)"))
        assert not is_derivable(parse_tree("(S (S (NP a) (S\\NP b)) (PUNC .))"))


class TestSpans:
    """The leaf spans of tree nodes, which collapse_tree computes in its
    walk: an occurrence is kept exactly when some node spans its units."""

    def test_figure_spans_only(self, fixtures_dir):
        tree = read_treebank(os.path.join(fixtures_dir,
                                          "fig_original_subtree.tb"))[0].tree
        pib = MweOccurrence((0, 1, 2), ("Publishers", "Information", "Bureau"),
                            "proper-noun")
        outcome = collapse_tree(tree, [pib])
        assert outcome.kept == [pib]
        assert outcome.categories[pib] == tree.category

    def test_non_sibling_units(self, fixtures_dir):
        tree = read_treebank(os.path.join(fixtures_dir,
                                          "fig_nonsibling_tree.tb"))[0].tree
        according_to = MweOccurrence((0, 1), ("according", "to"), "general")
        outcome = collapse_tree(tree, [according_to])
        assert outcome.discarded == [according_to]   # only the root spans both

    def test_inner_constituent(self, fixtures_dir):
        tree = read_treebank(os.path.join(fixtures_dir,
                                          "fig_original_subtree.tb"))[0].tree
        information_bureau = MweOccurrence((1, 2), ("Information", "Bureau"),
                                           "proper-noun")
        outcome = collapse_tree(tree, [information_bureau])
        assert outcome.kept == [information_bureau]
        assert outcome.categories[information_bureau] is \
            tree.children[1].category
        assert [token for _, token in leaves(outcome.tree)] == [
            "Publishers", "information+bureau"]

    def test_unary_chains_are_transparent(self):
        tree = parse_tree("(NP (N (N/N ad) (N pages)))")
        occurrence = MweOccurrence((0, 1), ("ad", "pages"), "general")
        outcome = collapse_tree(tree, [occurrence])
        assert outcome.kept == [occurrence]
        # the lowest node of the chain gives the category
        assert render(outcome.categories[occurrence]) == "N"
        assert render_tree(outcome.tree) == "(NP (N ad+pages))"

    def test_whole_tree_property(self, corpus):
        for record in corpus:
            n = len(record.tokens)
            whole = MweOccurrence(tuple(range(n)), tuple(record.tokens),
                                  "general")
            outcome = collapse_tree(record.tree, [whole])
            assert outcome.kept == [whole]
            assert outcome.categories[whole] == record.tree.category

    def test_spans_only_implies_contiguous(self):
        rng = random.Random(5)
        for _ in range(300):
            tree = random_tree(rng, rng.randint(2, 9))
            tokens = [token for _, token in leaves(tree)]
            indices = sorted(rng.sample(range(len(tokens)),
                                        rng.randint(2, len(tokens))))
            occurrence = MweOccurrence(tuple(indices),
                                       tuple(tokens[i] for i in indices),
                                       "general")
            outcome = assert_matches_reference(tree, [occurrence])
            if outcome.kept:
                assert max(indices) - min(indices) + 1 == len(indices)
                assert len(leaves(outcome.tree)) == \
                    len(tokens) - len(indices) + 1


CATS = [parse_category(s) for s in
        ["S", "NP", "N", "PP", "N/N", "NP/N", "S\\NP", "(S\\NP)/NP",
         "S[dcl]\\NP", "(NP\\NP)/NP"]]
TOKENS = ["mr.", "vinken", "the", "group", "fell", "publishers+information+bureau",
          "N.V.", "1,620", "3.2", "%", "'s"]


def random_tree(rng, budget):
    if budget <= 1:
        return DerivationTree(rng.choice(CATS), (), rng.choice(TOKENS))
    if rng.random() < 0.15:
        return DerivationTree(rng.choice(CATS), (random_tree(rng, budget),))
    split = rng.randint(1, budget - 1)
    return DerivationTree(rng.choice(CATS),
                          (random_tree(rng, split),
                           random_tree(rng, budget - split)))


class TestRoundTrips:
    def test_shipped_treebank_round_trip(self, data_dir, tmp_path):
        source = os.path.join(data_dir, "treebank.txt")
        records = read_treebank(source)
        out = tmp_path / "copy.txt"
        write_treebank(str(out), records)
        assert out.read_text(encoding="utf-8") == \
            Path(source).read_text(encoding="utf-8")

    def test_random_trees_round_trip(self):
        rng = random.Random(99)
        for _ in range(1000):
            tree = random_tree(rng, rng.randint(1, 12))
            text = render_tree(tree)
            again = parse_tree(text)
            assert render_tree(again) == text

    def test_token_file_round_trip(self, tmp_path):
        sentences = [["The", "price", "fell", "."],
                     ["mr.+vinken", "is", "chairman"]]
        path = tmp_path / "tokens.txt"
        write_tokens(str(path), sentences)
        assert read_tokens(str(path)) == sentences


class TestDependencyFiles:
    def test_file_indices_are_one_based(self, tmp_path):
        path = tmp_path / "d.deps"
        path.write_text("ID 9\n2\t1\tN/N\t1\tvinken\tmr.\n")
        (sid, deps), = read_dependencies(str(path)).items()
        assert sid == "9"
        dep = deps[0]
        assert (dep.i, dep.j) == (1, 0)
        assert render(dep.cat_j) == "N/N"
        assert (dep.word_i, dep.word_j) == ("vinken", "mr.")

    def test_mediating_edge_line(self, tmp_path):
        path = tmp_path / "d.deps"
        path.write_text("ID 1\n1\t2\t(S\\NP)/NP\t1\tmr.+vinken\tis\n")
        deps, = read_dependencies(str(path)).values()
        assert deps[0].i == 0 and deps[0].j == 1
        assert deps[0].word_i == "mr.+vinken"

    def test_round_trip(self, fixtures_dir, tmp_path):
        source = os.path.join(fixtures_dir, "fig_dep1.deps")
        items = read_dependencies(source)
        out = tmp_path / "copy.deps"
        write_dependencies(str(out), items)
        assert out.read_text(encoding="utf-8") == \
            Path(source).read_text(encoding="utf-8")

    def test_dep1_has_ten_edges(self, fixtures_dir):
        deps, = read_dependencies(os.path.join(fixtures_dir,
                                               "fig_dep1.deps")).values()
        assert len(deps) == 10

    def test_empty_sentence_writes_header_only(self, tmp_path):
        path = tmp_path / "d.deps"
        write_dependencies(str(path), {"7": []})
        assert path.read_text() == "ID 7\n"

    def test_field_count_error_names_line(self, tmp_path):
        path = tmp_path / "d.deps"
        path.write_text("ID 1\n1\t2\tN/N\t1\tonly-five\n")
        with pytest.raises(TreebankFormatError) as err:
            read_dependencies(str(path))
        assert "line 2" in str(err.value)

    def test_bad_index_error(self, tmp_path):
        path = tmp_path / "d.deps"
        path.write_text("ID 1\nx\t2\tN/N\t1\ta\tb\n")
        with pytest.raises(TreebankFormatError):
            read_dependencies(str(path))

    def test_arg_k_beyond_arity_rejected(self, tmp_path):
        path = tmp_path / "d.deps"
        path.write_text("ID 1\n1\t2\tN/N\t2\ta\tb\n")
        with pytest.raises(TreebankFormatError):
            read_dependencies(str(path))

    @pytest.mark.parametrize("line,message", [
        ("1\t2\tN/N\t1\ta\tb", "dependency without an ID header"),
        ("1\t2\tN/N\t1\tonly-five", "expected 6 tab-separated fields, got 5"),
        ("x\t2\tN/N\t1\ta\tb", "invalid literal for int()"),
        ("0\t2\tN/N\t1\ta\tb", "file indices are 1-based"),
        ("1\t2\tN/N\t2\ta\tb", "arg_k 2 exceeds arity of N/N"),
        ("2\t2\tN/N\t1\ta\tb", "dependency endpoints must differ"),
        ("1\t2\t(N/N\t1\ta\tb", "unbalanced parenthesis"),
        ("ID ", "empty sentence id"),
    ])
    def test_malformed_dependency_names_file_and_line(self, tmp_path, line,
                                                      message):
        path = tmp_path / "d.deps"
        header = "" if "header" in message else "ID 1\n"
        path.write_text(header + line + "\n")
        with pytest.raises(TreebankFormatError) as err:
            read_dependencies(str(path))
        assert str(err.value).startswith(
            "%s line %d: " % (path, 2 if header else 1))
        assert message in str(err.value)

    def test_repeated_sentence_id(self, tmp_path):
        path = tmp_path / "d.deps"
        path.write_text("ID 46\n1\t2\tN/N\t1\ta\tb\nID 47\nID 46\n")
        with pytest.raises(TreebankFormatError) as err:
            read_dependencies(str(path))
        assert str(err.value) == "%s line 4: duplicate sentence id 46" % path

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Dependency(3, 3, parse_category("N/N"), 1, "a", "a")

    def test_negative_endpoint_rejected(self):
        with pytest.raises(ValueError, match="must be non-negative"):
            Dependency(-1, 3, parse_category("N/N"), 1, "a", "b")


class TestLexicon:
    def test_shipped_lexicon(self, lexicon):
        entry = lexicon.entries[("publishers", "information", "bureau")]
        assert entry.kind == "proper-noun"
        assert entry.mwe_count == 4
        assert entry.unit_counts == (1, 2, 1)

    def test_keys_are_lowercased(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("Mr. Vinken\tproper-noun\t3\t1;1\n")
        lex = read_lexicon(str(path))
        assert ("mr.", "vinken") in lex.entries

    def test_empty_file(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("")
        assert read_lexicon(str(path)).entries == {}

    def test_single_unit_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("word\tgeneral\t3\t1\n")
        with pytest.raises(LexiconError):
            read_lexicon(str(path))

    def test_duplicate_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a b\tgeneral\t3\t1;1\nA B\tgeneral\t2\t1;1\n")
        with pytest.raises(LexiconError):
            read_lexicon(str(path))

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a b\tgeneral\t-3\t1;1\n")
        with pytest.raises(LexiconError):
            read_lexicon(str(path))

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("a b\tnoun\t3\t1;1\n")
        with pytest.raises(LexiconError):
            read_lexicon(str(path))


class TestOccurrenceAndCountFiles:
    @pytest.mark.parametrize("line,message", [
        ("7\t0,x\ta+b\tgeneral", "invalid literal for int()"),
        ("7\t0\ta\tgeneral", "needs >= 2 units"),
        ("7\t2,1\ta+b\tgeneral", "strictly increasing"),
        ("7\t1,1\ta+b\tgeneral", "strictly increasing"),
        ("7\t-1,0\ta+b\tgeneral", "0-based"),
        ("7\t0,1\ta+b", "expected 4 tab-separated fields"),
        ("\t0,1\ta+b\tgeneral", "empty sentence id"),
        ("7\t0,1\ta+b\tbogus", "unknown kind 'bogus'"),
        ("7 x\t0,1\ta+b\tgeneral", "sentence id '7 x' contains whitespace"),
    ])
    def test_malformed_occurrence_names_file_and_line(self, tmp_path, line,
                                                      message):
        path = tmp_path / "occ.tsv"
        path.write_text("7\t0,1\tmr.+spoon\tproper-noun\n" + line + "\n")
        with pytest.raises(TreebankFormatError) as err:
            read_occurrences(str(path))
        assert str(err.value).startswith("%s line 2: " % path)
        assert message in str(err.value)

    def test_occurrences_read_zero_based_indices(self, tmp_path):
        path = tmp_path / "occ.tsv"
        path.write_text("7\t0,1\tmr.+spoon\tproper-noun\n")
        (occ,) = read_occurrences(str(path))["7"]
        assert occ.indices == (0, 1) and occ.joined == "mr.+spoon"

    def test_counts_round_trip_sorted_by_id(self, tmp_path):
        path = tmp_path / "counts.tsv"
        counts = {"47": (3, 5, 6), "46": (0, 0, 4)}
        write_counts(str(path), counts)
        assert path.read_text() == "46\t0\t0\t4\n47\t3\t5\t6\n"
        assert read_counts(str(path)) == counts

    @pytest.mark.parametrize("line,message", [
        ("47\t3\tx\t6", "invalid literal for int()"),
        ("47\t3\t5", "expected id, correct, attempted, gold"),
        ("47\t3\t5\t6\t1", "expected id, correct, attempted, gold"),
        ("47\t-3\t5\t6", "non-negative"),
        ("47\t5\t2\t3", "correct 5 exceeds attempted 2 or gold 3"),
        ("47\t4\t5\t3", "correct 4 exceeds attempted 5 or gold 3"),
        ("46\t1\t1\t1", "duplicate sentence id 46"),
    ])
    def test_malformed_counts_name_file_and_line(self, tmp_path, line,
                                                 message):
        path = tmp_path / "counts.tsv"
        path.write_text("46\t0\t0\t4\n" + line + "\n")
        with pytest.raises(TreebankFormatError) as err:
            read_counts(str(path))
        assert str(err.value).startswith("%s line 2: " % path)
        assert message in str(err.value)


class TestIds:
    def test_ids_file_in_file_order(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("47\n\n 46 \n")
        assert read_ids(str(path)) == ["47", "46"]

    def test_ids_file_rejects_repeated_id(self, tmp_path):
        path = tmp_path / "ids.txt"
        path.write_text("46\n47\n46\n")
        with pytest.raises(TreebankFormatError) as err:
            read_ids(str(path))
        assert str(err.value) == "%s line 3: duplicate sentence id 46" % path

    def test_check_ids_passes_equal_sets_in_any_order(self):
        check_ids({"2": [], "1": []}, ["1", "2"], "x")

    def test_check_ids_names_missing_and_unknown(self):
        with pytest.raises(ValueError) as err:
            check_ids({"3": [], "1": []}, {"1": [], "2": [], "10": []},
                      "out_b ids differ from out_a's")
        assert str(err.value) == ("out_b ids differ from out_a's: "
                                  "missing ['10', '2'], unknown ['3']")
