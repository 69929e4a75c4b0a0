import random

import pytest

from ccgmwe.recognition import (MweOccurrence, OverlapError, PRESETS,
                                RecognizerConfig, apply_filters, detect,
                                rebind_tokens, recognize, resolve)
from ccgmwe.treebank import LexiconEntry, MweLexicon


def occ(indices, tokens=None, kind="general"):
    tokens = tokens or tuple("w%d" % i for i in indices)
    return MweOccurrence(tuple(indices), tuple(tokens), kind)


@pytest.fixture(scope="module")
def tiny_lexicon():
    return MweLexicon([
        LexiconEntry(("a", "b"), "general", 5, (1, 2)),
        LexiconEntry(("a", "b", "c"), "general", 4, (1, 2, 1)),
        LexiconEntry(("b", "c"), "proper-noun", 6, (2, 1)),
        LexiconEntry(("d", "e"), "stop-word", 2, (5, 1)),
    ])


class TestDetect:
    def test_worked_example_sentence(self, lexicon, worked_example_tokens):
        found = {c.joined for c in detect(lexicon, worked_example_tokens)}
        assert {"mr.+spoon", "shore+up", "according+to",
                "publishers+information+bureau"} <= found

    def test_empty_tokens(self, lexicon):
        assert detect(lexicon, []) == []

    def test_final_unit_mismatch(self, tiny_lexicon):
        # "a b" only matches when every unit lines up consecutively
        assert [c.joined for c in detect(tiny_lexicon, ["a", "x", "b"])] == []
        assert [c.joined for c in
                detect(tiny_lexicon, ["publishers", "information", "office"])] == []

    def test_overlapping_candidates_all_returned(self, tiny_lexicon):
        found = sorted(c.joined for c in detect(tiny_lexicon, ["a", "b", "c"]))
        assert found == ["a+b", "a+b+c", "b+c"]

    def test_case_insensitive(self, tiny_lexicon):
        found = [c for c in detect(tiny_lexicon, ["A", "B"])]
        assert found[0].joined == "a+b"
        assert found[0].tokens == ("A", "B")   # verbatim tokens kept

    def test_repeated_sites(self, tiny_lexicon):
        found = [c.indices for c in detect(tiny_lexicon, ["a", "b", "a", "b"])
                 if c.joined == "a+b"]
        assert found == [(0, 1), (2, 3)]

    def test_kind_detectors(self, tiny_lexicon):
        tokens = ["a", "b", "c", "d", "e"]
        assert {c.joined for c in detect(tiny_lexicon, tokens, "proper-noun")} \
            == {"b+c"}
        assert {c.joined for c in detect(tiny_lexicon, tokens, "stop-word")} \
            == {"d+e"}


class TestFilters:
    def test_continuous_removes_gaps(self, tiny_lexicon):
        gappy = occ((3, 5))
        kept = apply_filters([gappy], ("continuous",), tiny_lexicon)
        assert kept == []

    def test_constrain_length(self, tiny_lexicon):
        three = occ((0, 1, 2), ("a", "b", "c"))
        two = occ((0, 1), ("a", "b"))
        kept = apply_filters([three, two], ("constrain-length(2)",), tiny_lexicon)
        assert kept == [two]

    def test_more_frequent_as_mwe(self, tiny_lexicon):
        # "d e": mwe count 2 <= standalone 5 for "d"
        losing = occ((0, 1), ("d", "e"))
        winning = occ((0, 1), ("a", "b"))
        kept = apply_filters([losing, winning], ("more-frequent-as-mwe",),
                             tiny_lexicon)
        assert kept == [winning]

    def test_unknown_filter_rejected(self, tiny_lexicon):
        with pytest.raises(ValueError):
            apply_filters([], ("score-threshold",), tiny_lexicon)


class TestResolve:
    def test_equal_length_tie_goes_leftmost(self):
        a = occ((0, 1), ("a", "b"))
        b = occ((1, 2), ("b", "c"))
        assert resolve([a, b], "longest") == [a]
        assert resolve([b, a], "longest") == [a]

    def test_longest_wins(self):
        short = occ((0, 1), ("a", "b"))
        long = occ((0, 1, 2), ("a", "b", "c"))
        assert resolve([short, long], "longest") == [long]

    def test_leftmost_same_start_takes_longest(self):
        short = occ((0, 1), ("a", "b"))
        long = occ((0, 1, 2), ("a", "b", "c"))
        assert resolve([short, long], "leftmost") == [long]

    def test_leftmost_scan(self):
        first = occ((0, 1), ("a", "b"))
        bigger_later = occ((1, 2, 3), ("b", "c", "d"))
        assert resolve([bigger_later, first], "leftmost") == [first]

    def test_output_is_disjoint_property(self):
        rng = random.Random(4242)
        for _ in range(10000):
            n = rng.randint(2, 14)
            candidates = []
            for _ in range(rng.randint(0, 8)):
                start = rng.randint(0, n - 2)
                length = rng.randint(2, min(4, n - start))
                candidates.append(occ(tuple(range(start, start + length))))
            resolver = rng.choice(["longest", "leftmost"])
            chosen = resolve(candidates, resolver)
            assert chosen == sorted(chosen, key=lambda c: c.start)
            taken = set()
            for one in chosen:
                assert taken.isdisjoint(one.indices)
                taken.update(one.indices)

    def test_longest_greedy_local_coverage(self):
        rng = random.Random(17)
        for _ in range(2000):
            candidates = []
            for _ in range(rng.randint(1, 6)):
                start = rng.randint(0, 8)
                length = rng.randint(2, 4)
                candidates.append(occ(tuple(range(start, start + length))))
            chosen = resolve(candidates, "longest")
            covered = sum(len(c.indices) for c in chosen)
            assert covered >= max(len(c.indices) for c in candidates)


class TestRecognize:
    def test_worked_example_rec1(self, lexicon, worked_example_tokens):
        out = recognize(lexicon, worked_example_tokens, PRESETS["rec1"])
        assert [o.joined for o in out] == [
            "mr.+spoon", "shore+up", "according+to",
            "publishers+information+bureau"]

    def test_worked_example_rec3_proper_nouns(self, lexicon, worked_example_tokens):
        out = recognize(lexicon, worked_example_tokens, PRESETS["rec3"])
        assert {o.joined for o in out} == {"mr.+spoon",
                                           "publishers+information+bureau"}

    def test_worked_example_rec5_no_stop_words(self, lexicon, worked_example_tokens):
        assert recognize(lexicon, worked_example_tokens, PRESETS["rec5"]) == []

    def test_occurrences_match_token_sequence(self, lexicon, worked_example_tokens):
        for preset in PRESETS.values():
            for one in recognize(lexicon, worked_example_tokens, preset):
                for index, token in zip(one.indices, one.tokens):
                    assert worked_example_tokens[index] == token

    def test_order_invariance(self, tiny_lexicon):
        tokens = ["a", "b", "c", "d", "e"]
        config = PRESETS["rec1"]
        candidates = detect(tiny_lexicon, tokens, config.detector)
        rng = random.Random(3)
        reference = None
        for _ in range(20):
            rng.shuffle(candidates)
            kept = apply_filters(candidates, config.filters, tiny_lexicon)
            chosen = resolve(kept, config.resolver)
            if reference is None:
                reference = chosen
            assert chosen == reference

    def test_continuity_filter_always_present(self):
        config = RecognizerConfig("exhaustive", ("more-frequent-as-mwe",),
                                  "longest")
        assert config.filters[0] == "continuous"

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            RecognizerConfig("fuzzy", ("continuous",), "longest")
        with pytest.raises(ValueError):
            RecognizerConfig("exhaustive", ("continuous",), "middle")

    def test_unknown_names_rejected_by_each_stage(self, tiny_lexicon):
        with pytest.raises(ValueError) as err:
            detect(tiny_lexicon, ["a", "b"], "fuzzy")
        assert str(err.value) == "unknown detector 'fuzzy'"
        with pytest.raises(ValueError) as err:
            resolve([occ((0, 1))], "middle")
        assert str(err.value) == "unknown resolver 'middle'"


class TestOccurrenceInvariants:
    def test_needs_two_units(self):
        with pytest.raises(ValueError):
            MweOccurrence((3,), ("x",), "general")

    def test_strictly_increasing(self):
        with pytest.raises(ValueError):
            MweOccurrence((3, 3), ("x", "y"), "general")

    def test_joined_form_is_lowercased(self):
        one = MweOccurrence((0, 1), ("Mr.", "Vinken"), "proper-noun")
        assert one.joined == "mr.+vinken"

    def test_rebind_restores_verbatim_tokens(self):
        loaded = MweOccurrence((1, 2), ("mr.", "vinken"), "proper-noun")
        rebound, = rebind_tokens([loaded], ["So", "Mr.", "Vinken", "left"])
        assert rebound.tokens == ("Mr.", "Vinken")
        assert rebound.joined == "mr.+vinken"

    def test_rebind_rejects_joined_form_of_other_units(self):
        loaded = MweOccurrence((0, 1), ("foo", "bar"), "proper-noun")
        with pytest.raises(ValueError) as err:
            rebind_tokens([loaded], ["Mr.", "Vinken", "left"])
        assert str(err.value) == ("occurrence 'foo+bar' at 0,1 does not match "
                                  "the sentence's units 'mr.+vinken'")

    def test_rebind_rejects_overlap(self):
        with pytest.raises(OverlapError) as err:
            rebind_tokens([occ((1, 2)), occ((0, 1))], ["w0", "w1", "w2"])
        assert str(err.value) == "occurrences overlap at indices [1]"

    def test_rebind_rejects_index_past_the_sentence(self):
        with pytest.raises(ValueError) as err:
            rebind_tokens([occ((1, 2))], ["w0", "w1"])
        assert str(err.value) == ("occurrence 'w1+w2' outside sentence of 2 "
                                  "tokens")

    def test_rebind_sorts_by_first_unit(self):
        tokens = ["w%d" % i for i in range(6)]
        rebound = rebind_tokens([occ((4, 5)), occ((0, 1)), occ((2, 3))],
                                tokens)
        assert [one.indices for one in rebound] == [(0, 1), (2, 3), (4, 5)]
