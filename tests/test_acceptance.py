"""Acceptance suite: one test per criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s` to see them)."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path
from fractions import Fraction

import numpy as np

from ccgmwe.collapse import (collapse_all_dependencies, collapse_dependencies,
                             collapse_tree)
from ccgmwe.evaluation import (classify_edge, combine_models, f1,
                               membership_from_occurrences, sig_test)
from ccgmwe.parser import extract_dependencies, parse
from ccgmwe.recognition import MweOccurrence, PRESETS, recognize
from ccgmwe.treebank import (SentenceRecord, read_dependencies, read_treebank,
                             render_tree, write_treebank)

from test_collapse import random_graph
from test_evaluation import exhaustive_p_value, _random_counts
from test_parser import oracle_best, random_fuzz_model


def report(criterion, message):
    print("ACCEPTANCE %s PASS: %s" % (criterion, message))


def test_criterion_1_tree_figures(fixtures_dir, tmp_path):
    start = time.monotonic()
    original = read_treebank(os.path.join(fixtures_dir,
                                          "fig_original_subtree.tb"))[0]
    pib = MweOccurrence((0, 1, 2), ("Publishers", "Information", "Bureau"),
                        "proper-noun")
    outcome = collapse_tree(original.tree, [pib])
    assert outcome.kept == [pib]
    out_path = tmp_path / "collapsed.tb"
    write_treebank(str(out_path), [SentenceRecord("orst", outcome.tree)])
    expected = Path(fixtures_dir, "fig_collapsed_subtree.tb").read_bytes()
    assert out_path.read_bytes() == expected

    nonsibling = read_treebank(os.path.join(fixtures_dir,
                                            "fig_nonsibling_tree.tb"))[0]
    according_to = MweOccurrence((0, 1), ("according", "to"), "general")
    outcome2 = collapse_tree(nonsibling.tree, [according_to])
    assert outcome2.kept == []
    assert outcome2.discarded == [according_to]
    assert render_tree(outcome2.tree) == render_tree(nonsibling.tree)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("1", "figure trees collapse byte-exactly, non-siblings discarded "
           "(%.3fs)" % elapsed)


def test_criterion_2_dependency_figures(fixtures_dir):
    start = time.monotonic()
    record = read_treebank(os.path.join(fixtures_dir,
                                        "fig_dep1_sentence.tb"))[0]
    dep1 = read_dependencies(os.path.join(fixtures_dir,
                                          "fig_dep1.deps"))["dep1"]
    dep2 = read_dependencies(os.path.join(fixtures_dir,
                                          "fig_dep2.deps"))["dep1"]
    assert len(dep1) == 10 and len(dep2) == 8
    occurrences = [
        MweOccurrence((0, 1), ("Mr.", "Vinken"), "proper-noun"),
        MweOccurrence((5, 6), ("Elsevier", "N.V."), "proper-noun")]
    outcome = collapse_tree(record.tree, occurrences)
    collapsed = collapse_dependencies(dep1, outcome)
    assert sorted(d.key() for d in collapsed) == sorted(d.key() for d in dep2)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("2", "10-edge graph maps to the 8-edge collapsed graph exactly "
           "(%.3fs)" % elapsed)


def test_criterion_3_recognizer_worked_example(lexicon, worked_example_tokens):
    start = time.monotonic()
    out = recognize(lexicon, worked_example_tokens, PRESETS["rec1"])
    assert [o.joined for o in out] == [
        "mr.+spoon", "shore+up", "according+to",
        "publishers+information+bureau"]
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report("3", "rec1 returns exactly the four expected MWEs (%.3fs)" % elapsed)


def test_criterion_4_f1_arithmetic():
    first = f1(0.8489, 0.8568)
    second = f1(0.8453, 0.8476)
    assert abs(first - 0.8528) <= 0.00005
    assert abs(second - 0.8464) <= 0.00005
    report("4", "F1(0.8489, 0.8568)=%.5f and F1(0.8453, 0.8476)=%.5f"
           % (first, second))


def test_criterion_5_edge_partition_and_conservation():
    rng = random.Random(55901)
    for _ in range(1000):
        deps, occurrences = random_graph(rng)
        membership = membership_from_occurrences(occurrences)
        classes = [classify_edge(d, membership) for d in deps]
        internal = classes.count("internal")
        mediating = classes.count("mediating")
        external = classes.count("external")
        assert internal + mediating + external == len(deps)
        out = collapse_all_dependencies(deps, occurrences)
        assert len(out) == len(deps) - internal
    report("5", "1000 random graphs: classes partition, |out| = |in| - internal")


def test_criterion_6_combination_round_trip(corpus, lexicon):
    for record in corpus:
        deps = extract_dependencies(record.tree)
        occurrences = recognize(lexicon, record.tokens, PRESETS["rec1"])
        outcome = collapse_tree(record.tree, occurrences)
        collapsed = collapse_dependencies(deps, outcome)
        back = combine_models(deps, collapsed, outcome.kept, ("medFromA",))[0]
        assert sorted(d.key() for d in back) == sorted(d.key() for d in deps), \
            record.sid
    report("6", "medFromA(out_A, collapse(out_A)) == out_A on all %d sentences"
           % len(corpus))


def test_criterion_7_viterbi_matches_brute_force():
    rng = random.Random(20240817)
    cases = 0
    while cases < 500:
        model, vocab = random_fuzz_model(rng)
        for _ in range(8):
            tokens = [rng.choice(vocab + ["unseen"])
                      for _ in range(rng.randint(1, 5))]
            expected = oracle_best(model, tokens)
            result = parse(model, tokens)
            if expected is None:
                assert result.tree is None
            else:
                assert result.logprob is not None
                assert abs(result.logprob - expected) < 1e-9
            cases += 1
    report("7", "Viterbi equals exhaustive enumeration on %d fuzz cases" % cases)


def test_criterion_8_significance_calibration():
    start = time.monotonic()
    # exact agreement with the all-2^n-swaps computation
    rng = random.Random(81)
    for trial in range(12):
        n = rng.randint(2, 12)
        counts_x, counts_y = _random_counts(rng, n)
        result = sig_test(counts_x, counts_y, iterations=10000, seed=trial)
        assert result.exhaustive
        expected = exhaustive_p_value(counts_x, counts_y)
        assert Fraction(result.p_value).limit_denominator(2 ** n + 1) == expected

    # null calibration: 200 simulated experiments, 10,000 iterations each
    master = np.random.default_rng(20)
    p_values = []
    for _ in range(200):
        counts_x, counts_y = {}, {}
        for sid in range(50):
            gold = int(master.integers(5, 16))
            counts_x[str(sid)] = (int(master.binomial(gold, 0.8)), gold, gold)
            counts_y[str(sid)] = (int(master.binomial(gold, 0.8)), gold, gold)
        outcome = sig_test(counts_x, counts_y, iterations=10000,
                           seed=int(master.integers(0, 2 ** 31)))
        p_values.append(outcome.p_value)
    p = np.sort(np.asarray(p_values))
    n = len(p)
    grid = np.arange(1, n + 1) / n
    ks = max(np.max(np.abs(grid - p)), np.max(np.abs(p - (grid - 1.0 / n))))
    elapsed = time.monotonic() - start
    assert ks < 0.05
    assert elapsed < 300
    report("8", "exhaustive agreement holds; null KS distance %.4f (%.1fs)"
           % (ks, elapsed))


def test_criterion_9_end_to_end_determinism(tmp_path):
    start = time.monotonic()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    outputs = []
    # distinct string-hash seeds, so no artifact may depend on hash order
    for run, seed in (("one", "0"), ("two", "1")):
        out_dir = tmp_path / run
        config = tmp_path / ("%s.cfg" % run)
        config.write_text(
            "treebank = %s\nlexicon = %s\noutput = %s\n"
            "train = 1-40\ndev = 41-45\ntest = 46-60\n"
            "smoothing = 0.1\nseed = 13\niterations = 10000\n"
            % (os.path.join(root, "data", "treebank.txt"),
               os.path.join(root, "data", "lexicon.tsv"), out_dir))
        proc = subprocess.run(
            [sys.executable, "-m", "ccgmwe.cli", "run",
             "--config", str(config),
             "--config", os.path.join(root, "data", "configs", "rec1.cfg")],
            cwd=root, env=dict(os.environ, PYTHONHASHSEED=seed),
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(out_dir)
    names = sorted(os.listdir(outputs[0]))
    assert names == sorted(os.listdir(outputs[1]))
    for name in names:
        first = Path(outputs[0], name).read_bytes()
        second = Path(outputs[1], name).read_bytes()
        assert first == second, "artifact %s differs between runs" % name
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report("9", "two runs byte-identical across %d artifacts (%.1fs)"
           % (len(names), elapsed))
