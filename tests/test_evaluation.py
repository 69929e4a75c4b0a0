import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction

import numpy as np
import pytest

from ccgmwe import evaluation
from ccgmwe.categories import arity, parse_category, render
from ccgmwe.collapse import (collapse_dependencies, collapse_tokens,
                             collapse_tree)
from ccgmwe.evaluation import (EXTERNAL, INTERNAL, MEDIATING, classify_edge,
                               combine_models, f1, gold_keys,
                               membership_from_occurrences, score, sig_test)
from ccgmwe.parser import extract_dependencies
from ccgmwe.recognition import MweOccurrence, PRESETS, SCHEMES, recognize
from ccgmwe.treebank import Dependency


def membership_from_tokens(tokens):
    """Map token index -> group key using the '+' markers of collapsed
    tokens; every marked token is its own MWE."""
    return {i: i for i, token in enumerate(tokens) if "+" in token}


def dep(i, j, cat, k, wi, wj):
    return Dependency(i, j, parse_category(cat), k, wi, wj)


class TestFMeasure:
    def test_paper_row_arithmetic(self):
        assert f1(0.8489, 0.8568) == pytest.approx(0.8528, abs=0.00005)
        assert f1(0.8453, 0.8476) == pytest.approx(0.8464, abs=0.00005)

    def test_zero_denominator(self):
        assert f1(0.0, 0.0) == 0.0

    def test_beta_one_equals_simplified_form(self):
        rng = random.Random(3)
        for _ in range(1000):
            p, r = rng.random(), rng.random()
            if p + r == 0:
                continue
            assert f1(p, r) == pytest.approx(2 * p * r / (p + r))

    def test_f1_between_min_and_max(self):
        rng = random.Random(8)
        for _ in range(1000):
            p, r = rng.uniform(0.01, 1), rng.uniform(0.01, 1)
            value = f1(p, r)
            assert min(p, r) - 1e-12 <= value <= max(p, r) + 1e-12


class TestScore:
    def test_identical_sets_are_perfect(self):
        deps = {"1": [dep(0, 1, "N/N", 1, "a", "b")]}
        report = score(deps, gold_keys(deps))
        assert report.precision == report.recall == report.f1 == 1.0

    def test_disjoint_sets(self):
        system = {"1": []}
        gold = {"1": [dep(0, 1, "N/N", 1, "a", "b")]}
        report = score(system, gold_keys(gold))
        assert report.undefined_precision
        assert report.precision == 0.0 and report.recall == 0.0
        assert report.f1 == 0.0

    def test_unlabeled_match_ignores_label(self):
        system = {"1": [dep(0, 1, "NP/N", 1, "a", "b")]}
        gold = {"1": [dep(0, 1, "N/N", 1, "a", "b")]}
        assert score(system, gold_keys(gold)).f1 == 1.0
        assert score(system, gold_keys(gold, labeled=True),
                     labeled=True).f1 == 0.0

    def test_word_mismatch_is_an_error(self):
        system = {"1": [dep(0, 1, "N/N", 1, "a", "b")]}
        gold = {"1": [dep(0, 1, "N/N", 1, "x", "b")]}
        assert score(system, gold_keys(gold)).correct == 0

    def test_direction_sensitive(self):
        system = {"1": [dep(1, 0, "N/N", 1, "b", "a")]}
        gold = {"1": [dep(0, 1, "N/N", 1, "a", "b")]}
        assert score(system, gold_keys(gold)).correct == 0

    def test_swapping_system_and_gold_swaps_p_and_r(self):
        rng = random.Random(12)
        for _ in range(200):
            system, gold = {}, {}
            for sid in "123":
                system[sid] = [dep(i, 9, "N/N", 1, "w%d" % i, "h")
                               for i in rng.sample(range(8), rng.randint(0, 4))]
                gold[sid] = [dep(i, 9, "N/N", 1, "w%d" % i, "h")
                             for i in rng.sample(range(8), rng.randint(1, 4))]
            forward = score(system, gold_keys(gold))
            backward = score(gold, gold_keys(system))
            assert forward.precision == pytest.approx(backward.recall)
            assert forward.recall == pytest.approx(backward.precision)

    def test_micro_averaging_pools_counts(self):
        system = {"1": [dep(0, 1, "N/N", 1, "a", "b")], "2": []}
        gold = {"1": [dep(0, 1, "N/N", 1, "a", "b")],
                "2": [dep(0, 1, "N/N", 1, "c", "d")]}
        report = score(system, gold_keys(gold))
        assert report.precision == 1.0
        assert report.recall == 0.5

    def test_id_mismatch_lists_ids(self):
        with pytest.raises(ValueError) as err:
            score({"1": []}, gold_keys({"2": []}))
        assert "1" in str(err.value) and "2" in str(err.value)

    def test_duplicate_edges_match_as_multisets(self):
        two = [dep(0, 1, "N/N", 1, "a", "b"), dep(0, 1, "N/N", 2, "a", "b")]
        one = [dep(0, 1, "N/N", 1, "a", "b")]
        report = score({"1": two}, gold_keys({"1": one}))
        assert report.correct == 1 and report.attempted == 2


class TestClassifyEdge:
    MR_VINKEN = MweOccurrence((0, 1), ("mr.", "vinken"), "proper-noun")

    def test_internal(self):
        membership = membership_from_occurrences([self.MR_VINKEN])
        assert classify_edge(dep(1, 0, "N/N", 1, "vinken", "mr."),
                             membership) == INTERNAL

    def test_mediating(self):
        membership = membership_from_occurrences([self.MR_VINKEN])
        assert classify_edge(dep(1, 2, "(S\\NP)/NP", 1, "vinken", "is"),
                             membership) == MEDIATING

    def test_external(self):
        membership = membership_from_occurrences([self.MR_VINKEN])
        assert classify_edge(dep(3, 2, "(S\\NP)/NP", 2, "chairman", "is"),
                             membership) == EXTERNAL

    def test_membership_from_plus_markers(self):
        membership = membership_from_tokens(["mr.+vinken", "is", "chairman"])
        assert classify_edge(dep(0, 1, "(S\\NP)/NP", 1, "mr.+vinken", "is"),
                             membership) == MEDIATING
        assert classify_edge(dep(2, 1, "(S\\NP)/NP", 2, "chairman", "is"),
                             membership) == EXTERNAL

    def test_partition(self):
        rng = random.Random(77)
        for _ in range(500):
            occs = []
            start = 0
            while start < 8:
                if rng.random() < 0.4:
                    occs.append(MweOccurrence((start, start + 1),
                                              ("x", "y"), "general"))
                    start += 2
                else:
                    start += 1
            membership = membership_from_occurrences(occs)
            deps = []
            for _ in range(rng.randint(1, 12)):
                i, j = rng.sample(range(10), 2)
                deps.append(dep(i, j, "N/N", 1, "a", "b"))
            classes = [classify_edge(d, membership) for d in deps]
            assert len(classes) == len(deps)
            assert set(classes) <= {INTERNAL, MEDIATING, EXTERNAL}


class TestCombine:
    MR_VINKEN = MweOccurrence((0, 1), ("mr.", "vinken"), "proper-noun")
    OUT_B = [dep(0, 1, "(S\\NP)/NP", 1, "mr.+vinken", "is"),
             dep(2, 1, "(S\\NP)/NP", 2, "chairman", "is")]
    OUT_A = [dep(1, 0, "N/N", 1, "vinken", "mr."),
             dep(1, 2, "(S\\NP)/NP", 1, "vinken", "is"),
             dep(3, 2, "(S\\NP)/NP", 2, "chairman", "is")]

    def test_rightmost_expands_to_last_unit(self):
        out = combine_models(self.OUT_A, self.OUT_B, [self.MR_VINKEN],
                             ("rightmostMed",))[0]
        pairs = {(d.i, d.j, d.word_i, d.word_j) for d in out}
        assert (1, 2, "vinken", "is") in pairs       # mediating via rightmost
        assert (3, 2, "chairman", "is") in pairs     # external re-indexed
        assert (1, 0, "vinken", "mr.") in pairs      # internal from out_a

    def test_leftmost_expands_to_first_unit(self):
        out = combine_models(self.OUT_A, self.OUT_B, [self.MR_VINKEN],
                             ("leftmostMed",))[0]
        pairs = {(d.i, d.j, d.word_i) for d in out}
        assert (0, 2, "mr.") in pairs

    def test_med_from_a_takes_mediating_from_baseline(self):
        out = combine_models(self.OUT_A, self.OUT_B, [self.MR_VINKEN],
                             ("medFromA",))[0]
        assert sorted(d.key() for d in out) == sorted(d.key() for d in self.OUT_A)

    def test_no_mwes_returns_out_b(self):
        out_b = [dep(0, 1, "N/N", 1, "a", "b")]
        out = combine_models([], out_b, [], ("rightmostMed",))[0]
        assert [d.key() for d in out] == [d.key() for d in out_b]

    def test_expanded_functor_restores_category_from_out_a(self):
        occ = MweOccurrence((1, 2), ("according", "to"), "general")
        out_a = [dep(3, 2, "PP/NP", 1, "bureau", "to")]
        out_b = [dep(2, 1, "NP/N", 1, "bureau", "according+to")]
        out = combine_models(out_a, out_b, [occ], ("rightmostMed",))[0]
        mediating = [d for d in out if d.word_j == "to"]
        assert render(mediating[0].cat_j) == "PP/NP"

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            combine_models([], [], [], ("median",))
        with pytest.raises(ValueError, match="'median'"):
            combine_models([], [], [], ("medFromA", "median"))

    def test_all_schemes_share_the_edges_they_leave_alike(self):
        # "a b c+d e" on collapsed tokens: b->a keeps its indices, e->a
        # moves from 3 to 4, and c+d->b expands differently per scheme
        occ = MweOccurrence((2, 3), ("c", "d"), "general")
        before = dep(1, 0, "N/N", 1, "b", "a")
        after = dep(3, 0, "N/N", 1, "e", "a")
        out_b = [before, after, dep(2, 1, "N/N", 1, "c+d", "b")]
        together = combine_models([], out_b, [occ], SCHEMES)
        for combined in together:
            assert any(d is before for d in combined)
            assert all(d is not after for d in combined)
        moved = [next(d for d in combined if d.word_i == "e")
                 for combined in together]
        assert moved[0] is moved[1] is moved[2]
        assert (moved[0].i, moved[0].j) == (4, 0)

    def test_round_trip_identity_on_corpus(self, corpus, lexicon):
        for record in corpus:
            deps = extract_dependencies(record.tree)
            occs = recognize(lexicon, record.tokens, PRESETS["rec1"])
            outcome = collapse_tree(record.tree, occs)
            out_b = collapse_dependencies(deps, outcome)
            back = combine_models(deps, out_b, outcome.kept, ("medFromA",))[0]
            assert sorted(d.key() for d in back) == \
                sorted(d.key() for d in deps), record.sid


# The decollapsing helpers combine_models used before it inverted
# collapse.build_index_map, kept as the oracle for it.  Their shift
# arithmetic assumes that every unit of an occurrence precedes the tokens
# after its first unit, so they agree with collapse_tokens only when each
# occurrence's span holds nothing but its own units.

def reference_collapsed_positions(occurrences):
    occurrences = sorted(occurrences, key=lambda o: o.start)
    positions = {}
    shift = 0
    for occ in occurrences:
        positions[occ.indices[0] - shift] = occ
        shift += len(occ.indices) - 1
    return positions


def reference_to_original_index(collapsed_index, occurrences):
    if collapsed_index < 0:
        raise ValueError("negative collapsed index %d" % collapsed_index)
    shift = 0
    for occ in sorted(occurrences, key=lambda o: o.start):
        pos = occ.indices[0] - shift
        if collapsed_index > pos:
            shift += len(occ.indices) - 1
        elif collapsed_index == pos:
            raise ValueError("collapsed index %d is an MWE position"
                             % collapsed_index)
    return collapsed_index + shift


def reference_combine_models(out_a, out_b, occurrences, scheme):
    occurrences = sorted(occurrences, key=lambda o: o.start)
    membership_a = membership_from_occurrences(occurrences)
    positions = reference_collapsed_positions(occurrences)
    combined = []
    for d in out_a:
        edge_class = classify_edge(d, membership_a)
        if edge_class == INTERNAL:
            combined.append(d)
        elif edge_class == MEDIATING and scheme == "medFromA":
            combined.append(d)
    a_cats = {}
    for d in out_a:
        a_cats.setdefault(d.j, d.cat_j)
    for d in out_b:
        occ_i = positions.get(d.i)
        occ_j = positions.get(d.j)
        if occ_i is None and occ_j is None:
            combined.append(Dependency(
                reference_to_original_index(d.i, occurrences),
                reference_to_original_index(d.j, occurrences),
                d.cat_j, d.arg_k, d.word_i, d.word_j))
            continue
        if scheme == "medFromA":
            continue
        unit = -1 if scheme == "rightmostMed" else 0
        if occ_i is not None:
            i = occ_i.indices[unit]
            word_i = occ_i.tokens[unit]
        else:
            i = reference_to_original_index(d.i, occurrences)
            word_i = d.word_i
        if occ_j is not None:
            j = occ_j.indices[unit]
            word_j = occ_j.tokens[unit]
            cat_j = a_cats.get(j, d.cat_j)
            if d.arg_k > arity(cat_j):
                cat_j = d.cat_j
        else:
            j = reference_to_original_index(d.j, occurrences)
            word_j = d.word_j
            cat_j = d.cat_j
        combined.append(Dependency(i, j, cat_j, d.arg_k, word_i, word_j))
    combined.sort(key=lambda d: d.key())
    return combined


CATEGORIES = ("N/N", "(S\\NP)/NP", "(NP\\NP)/NP")


def random_edges(rng, words, n_indices):
    """Distinct-endpoint edges over indices below n_indices; an index past
    the end of `words` gets the word p<index>."""
    edges = []
    for _ in range(rng.randint(0, 8)):
        i, j = rng.sample(range(n_indices), 2)
        cat = rng.choice(CATEGORIES)
        k = rng.randint(1, arity(parse_category(cat)))
        edges.append(dep(i, j, cat, k,
                         *(words[x] if x < len(words) else "p%d" % x
                           for x in (i, j))))
    return edges


def random_combination(rng):
    """(tokens, occurrences, out_a, out_b, collapsed tokens) with tokens
    t0..tn-1, pairwise disjoint occurrences of which some are
    discontinuous, and out_b indices up to three past the collapsed
    sentence."""
    n = rng.randint(2, 12)
    tokens = ["t%d" % i for i in range(n)]
    free = list(range(n))
    occurrences = []
    for _ in range(rng.randint(0, 3)):
        size = rng.randint(2, 3)
        if len(free) < size:
            break
        if rng.random() < 0.5:
            indices = sorted(rng.sample(free, size))
        else:
            runs = [free[s:s + size] for s in range(len(free) - size + 1)
                    if free[s + size - 1] - free[s] == size - 1]
            if not runs:
                continue
            indices = rng.choice(runs)
        free = [i for i in free if i not in indices]
        occurrences.append(MweOccurrence(
            tuple(indices), tuple(tokens[i] for i in indices), "general"))
    collapsed = collapse_tokens(tokens, occurrences)
    out_a = random_edges(rng, tokens, n)
    out_b = random_edges(rng, collapsed, len(collapsed) + 3)
    return tokens, occurrences, out_a, out_b, collapsed


def reference_inverts_collapse(tokens, occurrences, collapsed, indices):
    """Whether the reference helpers send each collapsed index in `indices`
    where collapse_tokens took it from (read off the t<index> token
    names, or shifted by all merged units past the end)."""
    mwe = {occ.joined: occ for occ in occurrences}
    positions = reference_collapsed_positions(occurrences)
    shift = len(tokens) - len(collapsed)
    for c in indices:
        word = collapsed[c] if c < len(collapsed) else None
        if word in mwe:
            if positions.get(c) is not mwe[word]:
                return False
        elif c in positions:
            return False
        else:
            expected = int(word[1:]) if word else c + shift
            if reference_to_original_index(c, occurrences) != expected:
                return False
    return True


class TestCombineOracle:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_matches_reference_helpers(self, scheme):
        rng = random.Random(SCHEMES.index(scheme))
        compared = {"discontinuous": 0, "past_end": 0}
        for _ in range(600):
            tokens, occurrences, out_a, out_b, collapsed = \
                random_combination(rng)
            out = combine_models(out_a, out_b, occurrences, (scheme,))[0]
            # every edge lands on the original token carrying its word
            for d in out:
                for index, word in ((d.i, d.word_i), (d.j, d.word_j)):
                    assert word == (tokens[index] if index < len(tokens)
                                    else "p%d" % (index - len(tokens)
                                                  + len(collapsed)))
            used = {index for d in out_b for index in (d.i, d.j)}
            if not reference_inverts_collapse(tokens, occurrences,
                                              collapsed, used):
                # the shift arithmetic only fails on a gap in a unit span
                assert not all(occ.is_continuous() for occ in occurrences)
                continue
            expected = reference_combine_models(out_a, out_b, occurrences,
                                                scheme)
            assert [d.key() for d in out] == [d.key() for d in expected]
            # the all-schemes pass gives each scheme's combination
            together = combine_models(out_a, out_b, occurrences, SCHEMES)
            assert [d.key() for d in together[SCHEMES.index(scheme)]] \
                == [d.key() for d in out]
            compared["discontinuous"] += not all(
                occ.is_continuous() for occ in occurrences)
            compared["past_end"] += max(used, default=0) >= len(collapsed)
        assert min(compared.values()) >= 20, compared

    def test_gap_token_maps_to_itself(self):
        occ = MweOccurrence((0, 2), ("a", "c"), "general")
        collapsed = collapse_tokens(["a", "b", "c", "d"], [occ])
        assert collapsed == ["a+c", "b", "d"]
        out_b = [dep(1, 2, "N/N", 1, "b", "d")]
        out = combine_models([], out_b, [occ], ("rightmostMed",))[0]
        assert [(d.i, d.j) for d in out] == [(1, 3)]
        # the reference sent b to c's index
        assert reference_to_original_index(1, [occ]) == 2


def exhaustive_p_value(counts_x, counts_y):
    """Independent exact-rational enumeration of all 2^n swap patterns."""
    sids = sorted(counts_x)
    x = [counts_x[sid] for sid in sids]
    y = [counts_y[sid] for sid in sids]

    def pooled_f1(rows):
        correct = sum(r[0] for r in rows)
        attempted = sum(r[1] for r in rows)
        gold = sum(r[2] for r in rows)
        if attempted == 0 or gold == 0 or correct == 0:
            precision = Fraction(correct, attempted) if attempted else Fraction(0)
            recall = Fraction(correct, gold) if gold else Fraction(0)
            if precision + recall == 0:
                return Fraction(0)
            return 2 * precision * recall / (precision + recall)
        precision = Fraction(correct, attempted)
        recall = Fraction(correct, gold)
        return 2 * precision * recall / (precision + recall)

    observed = pooled_f1(x) - pooled_f1(y)
    hits = 0
    for pattern in itertools.product((False, True), repeat=len(sids)):
        xs = [b if swap else a for a, b, swap in zip(x, y, pattern)]
        ys = [a if swap else b for a, b, swap in zip(x, y, pattern)]
        if pooled_f1(xs) - pooled_f1(ys) >= observed:
            hits += 1
    return Fraction(hits + 1, 2 ** len(sids) + 1)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")

# sig_test over 60 sentences with 2^60 iterations, in a process of its own
LARGE_N_EXACT = textwrap.dedent("""
    import json, sys, time
    from ccgmwe.evaluation import sig_test
    counts_x, counts_y = json.loads(sys.argv[1])
    start = time.perf_counter()
    result = sig_test(counts_x, counts_y, iterations=2 ** 60)
    seconds = time.perf_counter() - start
    print(json.dumps([result.p_value, result.exhaustive, seconds,
                      "numpy" in sys.modules]))
""")


# one sampled sig_test over the draw limit, in a process of its own: its
# thread count and the BLAS thread variables it leaves
SAMPLED_THREADS = textwrap.dedent("""
    import json, os, sys
    from ccgmwe.evaluation import sig_test
    counts_x, counts_y = json.loads(sys.argv[1])
    result = sig_test(counts_x, counts_y, iterations=10000)
    print(json.dumps([result.exhaustive, "numpy" in sys.modules,
                      len(os.listdir("/proc/self/task")),
                      {name: os.environ.get(name) for name in sys.argv[2:]}]))
""")
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def enumerated_sig_test(counts_x, counts_y):
    """The exhaustive test with every one of the 2^n swap patterns as a row
    of numpy arrays, in the arithmetic sig_test must reproduce exactly."""
    sids = sorted(counts_x)
    x = np.array([counts_x[sid] for sid in sids], dtype=np.int64)
    y = np.array([counts_y[sid] for sid in sids], dtype=np.int64)

    def pooled_f1(correct, attempted, gold):
        return 2.0 * correct / (attempted + gold) if attempted + gold else 0.0

    observed = (pooled_f1(*x.sum(axis=0).tolist())
                - pooled_f1(*y.sum(axis=0).tolist()))
    shift = np.zeros((1, 3), dtype=np.int64)
    for row in y - x:                             # row p: p's set bits swapped
        shift = np.concatenate((shift, shift + row))
    x_tot = x.sum(axis=0)[None, :] + shift
    y_tot = y.sum(axis=0)[None, :] - shift
    f1_x = np.zeros(len(shift))
    f1_y = np.zeros(len(shift))
    denom_x = x_tot[:, 1] + x_tot[:, 2]
    denom_y = y_tot[:, 1] + y_tot[:, 2]
    np.divide(2.0 * x_tot[:, 0], denom_x, out=f1_x, where=denom_x > 0)
    np.divide(2.0 * y_tot[:, 0], denom_y, out=f1_y, where=denom_y > 0)
    hits = int(np.count_nonzero(f1_x - f1_y >= observed))
    return ((hits + 1) / (len(shift) + 1), observed, len(shift), True)


def _swap_counts(rng, n):
    """Counts of X and Y on n sentences, mixing sentences the systems score
    alike, ones that differ only in gold, empty ones, and a system with no
    dependencies at all."""
    empty_x = rng.random() < 0.1
    counts_x, counts_y = {}, {}
    for sid in range(n):
        rows = []
        for _ in "xy":
            gold, attempted = rng.randint(0, 6), rng.randint(0, 6)
            correct = rng.randint(0, min(gold, attempted))
            rows.append((correct, attempted, gold))
        row_x, row_y = rows
        kind = rng.randrange(4)
        if kind == 0:
            row_y = row_x
        elif kind == 1:
            row_y = row_x[:2] + (rng.randint(row_x[0], 8),)
        elif kind == 2:
            row_y = (0, 0, 0)
        counts_x[str(sid)] = (0, 0, 0) if empty_x else row_x
        counts_y[str(sid)] = row_y
    return counts_x, counts_y


def _random_counts(rng, n, better=0.0):
    counts_x, counts_y = {}, {}
    for sid in range(n):
        gold = rng.randint(4, 14)
        counts_x[str(sid)] = (min(gold, rng.randint(2, 12) + int(better * gold)),
                              gold, gold)
        counts_y[str(sid)] = (min(gold, rng.randint(2, 12)), gold, gold)
    return counts_x, counts_y


class TestSigTest:
    def test_identical_systems_give_p_one(self):
        counts = {str(i): (3, 5, 5) for i in range(6)}
        result = sig_test(counts, counts, iterations=10000, seed=1)
        assert result.p_value == 1.0
        assert result.observed_diff == 0.0

    def test_exhaustive_mode_matches_enumeration(self):
        rng = random.Random(5)
        for trial in range(20):
            n = rng.randint(2, 9)
            counts_x, counts_y = _random_counts(rng, n)
            result = sig_test(counts_x, counts_y, iterations=10000, seed=trial)
            assert result.exhaustive
            expected = exhaustive_p_value(counts_x, counts_y)
            assert (Fraction(result.p_value).limit_denominator(2 ** n + 1)
                    == expected)

    def test_exhaustive_matches_all_rows_enumerated(self):
        rng = random.Random(16)
        for trial in range(1200):
            n = rng.randint(1, 14)
            counts_x, counts_y = _swap_counts(rng, n)
            result = sig_test(counts_x, counts_y, iterations=2 ** n,
                              seed=trial)
            assert ((result.p_value, result.observed_diff, result.iterations,
                     result.exhaustive)
                    == enumerated_sig_test(counts_x, counts_y))

    def test_exhaustive_on_many_alike_sentences_without_numpy(self):
        # 52 sentences scored alike only double every pattern's count: with
        # them pooled into one sentence, 9 sentences give the hits of 60
        rng = random.Random(60)
        counts_x, counts_y = {}, {}
        for sid in range(8):                      # every one differs
            gold = rng.randint(4, 14)
            correct_x, correct_y = rng.sample(range(gold + 1), 2)
            counts_x[str(sid)] = (correct_x, gold, gold)
            counts_y[str(sid)] = (correct_y, rng.randint(gold - 2, gold + 2),
                                  gold)
        alike = [(rng.randint(0, 5), rng.randint(5, 9), rng.randint(5, 9))
                 for _ in range(52)]
        pooled = tuple(map(sum, zip(*alike)))
        hits = int(exhaustive_p_value(dict(counts_x, alike=pooled),
                                      dict(counts_y, alike=pooled))
                   * (2 ** 9 + 1) - 1)
        for sid, row in enumerate(alike):
            counts_x["alike%d" % sid] = counts_y["alike%d" % sid] = row
        done = subprocess.run(
            [sys.executable, "-c", LARGE_N_EXACT,
             json.dumps([counts_x, counts_y])],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                filter(None, [SRC, os.environ.get("PYTHONPATH")]))),
            capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        p_value, exhaustive, seconds, numpy_loaded = json.loads(done.stdout)
        assert exhaustive and not numpy_loaded
        assert p_value == (2 ** 51 * hits + 1) / (2 ** 60 + 1)
        assert seconds < 1.0

    def test_uniformly_better_system_is_significant(self):
        counts_x, counts_y = {}, {}
        for sid in range(50):
            counts_x[str(sid)] = (9, 10, 10)
            counts_y[str(sid)] = (5, 10, 10)
        result = sig_test(counts_x, counts_y, iterations=10000, seed=0)
        assert result.p_value < 0.01

    def test_deterministic_for_fixed_seed(self):
        rng = random.Random(9)
        counts_x, counts_y = _random_counts(rng, 40)
        first = sig_test(counts_x, counts_y, iterations=5000, seed=11)
        second = sig_test(counts_x, counts_y, iterations=5000, seed=11)
        assert not first.exhaustive
        assert first.p_value == second.p_value

    @staticmethod
    def sampled_p_value(counts_x, counts_y, iterations, seed, observed):
        """The p-value of the swaps default_rng(seed).random((iterations,
        n)) < 0.5, every sentence's column drawn and multiplied out."""
        sids = sorted(counts_x)
        x = np.array([counts_x[sid] for sid in sids], dtype=np.int64)
        y = np.array([counts_y[sid] for sid in sids], dtype=np.int64)
        swaps = np.random.default_rng(seed).random((iterations,
                                                    len(sids))) < 0.5
        shift = swaps.astype(np.int64) @ (y - x)
        x_tot, y_tot = x.sum(axis=0) + shift, y.sum(axis=0) - shift
        diffs = (2.0 * x_tot[:, 0] / (x_tot[:, 1] + x_tot[:, 2])
                 - 2.0 * y_tot[:, 0] / (y_tot[:, 1] + y_tot[:, 2]))
        hits = int(np.count_nonzero(diffs >= observed))
        return (hits + 1) / (iterations + 1)

    @pytest.mark.parametrize("block",
                             [1, 37 * 3, 37 * 64 + 5, 1 << 14, 1 << 18])
    def test_sampler_draws_one_stream(self, monkeypatch, block):
        # numpy draws swap patterns a block of rows at a time; every block
        # size gives the p-value of one (iterations, n) draw.  37,000 draws
        # fit under _PURE_DRAWS, so the limit is lowered to reach numpy
        monkeypatch.setattr(evaluation, "_PURE_DRAWS", -1)
        counts_x, counts_y = _random_counts(random.Random(12), 37)
        monkeypatch.setattr(evaluation, "_SWAP_BLOCK", block)
        result = sig_test(counts_x, counts_y, iterations=1000, seed=5)
        assert result.p_value == self.sampled_p_value(
            counts_x, counts_y, 1000, 5, result.observed_diff)

    @pytest.mark.parametrize("block", [1, 7, 399, 1 << 14])
    @pytest.mark.parametrize("moving", [5, 0])
    def test_sampler_reads_raw_top_bits_of_moving_columns(
            self, monkeypatch, block, moving):
        # numpy tests the top bit of each raw draw of the m columns that
        # move the totals; the reference compares every cell's random()
        # with 0.5.  The other 395 or 400 sentences are scored alike
        monkeypatch.setattr(evaluation, "_PURE_DRAWS", -1)
        monkeypatch.setattr(evaluation, "_SWAP_BLOCK", block)
        rng = random.Random(moving)
        counts_x = _random_counts(rng, 400)[0]
        counts_y = dict(counts_x)
        for sid in ([0, 399] + rng.sample(range(1, 399), 3))[:moving]:
            gold = counts_x[str(sid)][2]
            counts_y[str(sid)] = (rng.randint(0, gold),
                                  gold + rng.randint(1, 3), gold)
        assert sum(counts_x[sid] != counts_y[sid]
                   for sid in counts_x) == moving
        for seed in (5, 2 ** 64 + 9):
            result = sig_test(counts_x, counts_y, iterations=600, seed=seed)
            assert not result.exhaustive
            assert result.p_value == self.sampled_p_value(
                counts_x, counts_y, 600, seed, result.observed_diff)

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="needs /proc/self/task")
    @pytest.mark.parametrize("caller", [None, "2"])
    def test_numpy_sampler_runs_on_one_thread(self, caller):
        # OpenBLAS starts a thread per CPU unless told otherwise when numpy
        # loads; the sampler calls no BLAS routine, so it loads numpy with
        # one, and leaves a count the caller chose as it was
        counts_x, counts_y = _random_counts(random.Random(60), 60)
        env = {name: value for name, value in os.environ.items()
               if name not in BLAS_THREADS}
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [SRC, os.environ.get("PYTHONPATH")]))
        if caller is not None:
            env["OPENBLAS_NUM_THREADS"] = caller
        done = subprocess.run(
            [sys.executable, "-c", SAMPLED_THREADS,
             json.dumps([counts_x, counts_y]), *BLAS_THREADS],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        exhaustive, numpy_loaded, threads, left = json.loads(done.stdout)
        assert not exhaustive and numpy_loaded
        assert left == dict.fromkeys(BLAS_THREADS) | (
            {} if caller is None else {"OPENBLAS_NUM_THREADS": caller})
        if caller is None:
            assert threads == 1

    @pytest.mark.parametrize("seed", [0, 7, 2 ** 32 + 5, 2 ** 64 - 1,
                                      2 ** 64 + 9, 2 ** 128, 3 ** 200])
    def test_python_sampler_draws_numpy_stream(self, monkeypatch, seed):
        # numpy is the reference: the Python draws of the differing
        # sentences' cells must give its result exactly.  2^64 - 1, 2^64 + 9
        # and 2^128 seed SeedSequence with 2, 3 and 5 entropy words
        rng = random.Random(seed)
        cases = [({"1": (1, 2, 2)}, {"1": (0, 2, 2)}, 1),     # n = 1
                 ({"1": (1, 2, 3)}, {"1": (1, 3, 2)}, 1),     # m = 0
                 ({"1": (1, 2, 2), "2": (1, 2, 2)},           # gold only
                  {"1": (1, 2, 5), "2": (1, 2, 2)}, 3)]
        for _ in range(60):
            n = rng.randint(1, 40)
            counts_x, counts_y = _swap_counts(rng, n)
            for sid in rng.sample(sorted(counts_x), n // 4):  # same c, a + g
                correct, attempted, gold = counts_x[sid]
                counts_y[sid] = (correct, gold, attempted)
            cases.append((counts_x, counts_y,
                          rng.choice([1, rng.randint(1, 2 ** min(n, 11) - 1)])))
        by_numpy = []
        for counts_x, counts_y, iterations in cases:
            results = []
            for limit in (-1, 1 << 62):
                monkeypatch.setattr(evaluation, "_PURE_DRAWS", limit)
                results.append(sig_test(counts_x, counts_y, iterations, seed))
            assert not results[0].exhaustive
            assert results[1] == results[0], (counts_x, counts_y, iterations)
            by_numpy.append(results[0])
        # one memo for all the cases, in another order: a column drawn for
        # one case is reused by every later case of the same n and
        # iterations
        requested, swap_columns = [], evaluation._swap_columns

        def counted(drawn, columns, n, iterations, seed):
            requested.extend((seed, n, iterations, col) for col in columns)
            return swap_columns(drawn, columns, n, iterations, seed)

        monkeypatch.setattr(evaluation, "_swap_columns", counted)
        drawn = {}
        order = list(range(len(cases)))
        rng.shuffle(order)
        for case in order:
            counts_x, counts_y, iterations = cases[case]
            assert (sig_test(counts_x, counts_y, iterations, seed,
                             drawn=drawn) == by_numpy[case]), cases[case]
        assert set(requested) == set(drawn)
        assert len(requested) > len(drawn)          # some were reused

    def test_exhaustive_exactly_when_patterns_fit_budget(self):
        counts_x, counts_y = _random_counts(random.Random(4), 4)
        exact = sig_test(counts_x, counts_y, iterations=16, seed=3)
        assert exact.exhaustive and exact.iterations == 16
        assert exact.p_value == pytest.approx(
            float(exhaustive_p_value(counts_x, counts_y)), abs=1e-12)
        sampled = sig_test(counts_x, counts_y, iterations=15, seed=3)
        assert not sampled.exhaustive and sampled.iterations == 15

    def test_id_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sig_test({"1": (1, 2, 2)}, {"2": (1, 2, 2)})

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sig_test({}, {})

    def test_null_p_values_are_roughly_uniform(self):
        # smoke-scale version of the acceptance calibration
        rng = np.random.default_rng(2024)
        p_values = []
        for _ in range(60):
            counts_x, counts_y = {}, {}
            for sid in range(30):
                gold = int(rng.integers(5, 15))
                counts_x[str(sid)] = (int(rng.binomial(gold, 0.8)), gold, gold)
                counts_y[str(sid)] = (int(rng.binomial(gold, 0.8)), gold, gold)
            result = sig_test(counts_x, counts_y, iterations=2000,
                              seed=int(rng.integers(0, 2 ** 31)))
            p_values.append(result.p_value)
        assert 0.2 < np.mean(p_values) < 0.8
