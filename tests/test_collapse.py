import importlib.util
import os
import random

import pytest

from ccgmwe.categories import parse_category, render
from ccgmwe.collapse import (CollapseOutcome, DataInconsistencyError,
                             build_index_map, collapse_all_dependencies,
                             collapse_dependencies, collapse_tokens,
                             collapse_tree, detect_cycles)
from ccgmwe.evaluation import (EXTERNAL, INTERNAL, MEDIATING, classify_edge,
                               membership_from_occurrences)
from ccgmwe.parser import extract_dependencies
from ccgmwe.recognition import PRESETS, MweOccurrence, recognize
from ccgmwe.treebank import (Dependency, DerivationTree, leaf_nodes, leaves,
                             read_dependencies, read_treebank, render_tree)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PIB = MweOccurrence((0, 1, 2), ("Publishers", "Information", "Bureau"),
                    "proper-noun")
ACCORDING_TO = MweOccurrence((0, 1), ("according", "to"), "general")


def dep(i, j, cat, k, wi, wj):
    return Dependency(i, j, parse_category(cat), k, wi, wj)


class TestCollapseTree:
    def test_figure_subtree_collapses_to_single_leaf(self, fixtures_dir):
        tree = read_treebank(os.path.join(fixtures_dir,
                                          "fig_original_subtree.tb"))[0].tree
        outcome = collapse_tree(tree, [PIB])
        assert outcome.kept == [PIB]
        assert outcome.discarded == []
        assert render_tree(outcome.tree) == "(N publishers+information+bureau)"
        assert render(outcome.categories[PIB]) == "N"

    def test_non_siblings_are_discarded(self, fixtures_dir):
        tree = read_treebank(os.path.join(fixtures_dir,
                                          "fig_nonsibling_tree.tb"))[0].tree
        before = render_tree(tree)
        outcome = collapse_tree(tree, [ACCORDING_TO])
        assert outcome.kept == []
        assert outcome.discarded == [ACCORDING_TO]
        assert render_tree(outcome.tree) == before

    def test_empty_occurrences_is_identity(self, corpus):
        record = corpus[0]
        outcome = collapse_tree(record.tree, [])
        assert render_tree(outcome.tree) == render_tree(record.tree)
        assert outcome.kept == [] and outcome.discarded == []
        n = len(record.tokens)
        assert outcome.index_map == {i: i for i in range(n)}

    def test_index_map_is_monotone_and_merges_units(self, fixtures_dir):
        record = read_treebank(os.path.join(fixtures_dir,
                                            "fig_dep1_sentence.tb"))[0]
        mr_vinken = MweOccurrence((0, 1), ("Mr.", "Vinken"), "proper-noun")
        elsevier = MweOccurrence((5, 6), ("Elsevier", "N.V."), "proper-noun")
        outcome = collapse_tree(record.tree, [mr_vinken, elsevier])
        index_map = outcome.index_map
        values = [index_map[i] for i in range(len(record.tokens))]
        assert values == sorted(values)
        assert index_map[0] == index_map[1] == 0
        assert index_map[5] == index_map[6] == 4
        assert len(leaves(outcome.tree)) == len(record.tokens) - 2

    def test_leaf_count_arithmetic(self, corpus, lexicon):
        from ccgmwe.recognition import PRESETS, recognize
        for record in corpus:
            occs = recognize(lexicon, record.tokens, PRESETS["rec1"])
            outcome = collapse_tree(record.tree, occs)
            shrink = sum(len(o.indices) - 1 for o in outcome.kept)
            assert len(leaves(outcome.tree)) == len(record.tokens) - shrink
            assert sorted(outcome.kept + outcome.discarded,
                          key=lambda o: o.start) == sorted(
                occs, key=lambda o: o.start)

    def test_tree_without_kept_mwe_is_returned_as_is(self, fixtures_dir):
        tree = read_treebank(os.path.join(fixtures_dir,
                                          "fig_nonsibling_tree.tb"))[0].tree
        for occurrences in ([], [ACCORDING_TO]):
            outcome = collapse_tree(tree, occurrences)
            assert outcome.tree is tree
            assert outcome.kept == []

    def test_kept_collapse_shares_unchanged_subtrees(self, fixtures_dir):
        record = read_treebank(os.path.join(fixtures_dir,
                                            "fig_dep1_sentence.tb"))[0]
        before = render_tree(record.tree)
        mr_vinken = MweOccurrence((0, 1), ("Mr.", "Vinken"), "proper-noun")
        elsevier = MweOccurrence((5, 6), ("Elsevier", "N.V."), "proper-noun")
        outcome = collapse_tree(record.tree, [mr_vinken, elsevier])
        assert outcome.kept == [mr_vinken, elsevier]
        assert render_tree(record.tree) == before
        spans = []
        _spans(record.tree, 0, spans)
        kept = [(0, 1), (5, 6)]
        # a node spanning a kept MWE is on a root-to-MWE path and is new;
        # a node strictly inside one is gone; every other node is shared
        path = [node for node, first, last in spans
                if any(first <= a and b <= last for a, b in kept)]
        inside = [node for node, first, last in spans
                  if any(a <= first and last <= b and (first, last) != (a, b)
                         for a, b in kept)]
        gone = {id(node) for node in path + inside}
        shared = {id(node) for node, _, _ in spans} - gone
        assert len(path) == 9 and len(inside) == 4
        collapsed = {id(node) for node in _nodes(outcome.tree)}
        assert collapsed.isdisjoint(gone)
        assert shared <= collapsed
        assert len(collapsed) == len(shared) + len(path)
        assert [token for _, token in leaves(outcome.tree)] == (
            ["mr.+vinken"] + record.tokens[2:5] + ["elsevier+n.v."]
            + record.tokens[7:])

    def test_order_independence(self, fixtures_dir):
        record = read_treebank(os.path.join(fixtures_dir,
                                            "fig_dep1_sentence.tb"))[0]
        mr_vinken = MweOccurrence((0, 1), ("Mr.", "Vinken"), "proper-noun")
        elsevier = MweOccurrence((5, 6), ("Elsevier", "N.V."), "proper-noun")
        one = collapse_tree(record.tree, [mr_vinken, elsevier])
        two = collapse_tree(record.tree, [elsevier, mr_vinken])
        assert render_tree(one.tree) == render_tree(two.tree)
        assert one.index_map == two.index_map


class TestCollapseDependencies:
    def setup_method(self):
        # the four-token example: mr. vinken is chairman
        self.deps = [
            dep(1, 0, "N/N", 1, "vinken", "mr."),
            dep(1, 2, "(S\\NP)/NP", 1, "vinken", "is"),
            dep(3, 2, "(S\\NP)/NP", 2, "chairman", "is"),
        ]
        self.occ = MweOccurrence((0, 1), ("mr.", "vinken"), "proper-noun")
        self.outcome = CollapseOutcome(
            None, [self.occ], [], build_index_map(4, [self.occ]),
            {self.occ: parse_category("N")})

    def test_internal_deleted_mediating_redirected(self):
        out = collapse_dependencies(self.deps, self.outcome)
        assert len(out) == 2
        mediating, external = out
        assert (mediating.i, mediating.j) == (0, 1)
        assert mediating.word_i == "mr.+vinken"
        assert (external.i, external.j) == (2, 1)
        assert external.word_i == "chairman"

    def test_functor_side_substitutes_category(self):
        deps = [dep(2, 1, "N/N", 1, "x", "vinken")]
        out = collapse_dependencies(deps, self.outcome)
        assert out[0].word_j == "mr.+vinken"
        assert render(out[0].cat_j) == "N"
        assert (out[0].i, out[0].j) == (1, 0)

    def test_empty_kept_reindexes_identically(self):
        outcome = CollapseOutcome(None, [], [], {i: i for i in range(4)}, {})
        assert collapse_dependencies(self.deps, outcome) == self.deps

    def test_edges_left_in_place_are_the_input_objects(self):
        # "a b c+d e f": only the edges before the MWE keep their indices
        occ = MweOccurrence((2, 3), ("c", "d"), "general")
        outcome = CollapseOutcome(None, [occ], [], build_index_map(6, [occ]),
                                  {occ: parse_category("N")})
        before = dep(1, 0, "N/N", 1, "b", "a")
        after = dep(5, 4, "N/N", 1, "f", "e")
        mediating = dep(4, 3, "N/N", 1, "e", "d")
        out = collapse_dependencies(
            [before, after, dep(3, 2, "N/N", 1, "d", "c"), mediating],
            outcome)
        assert out[0] is before
        assert out[1] is not after and out[1].key() == dep(
            4, 3, "N/N", 1, "f", "e").key()
        assert out[2] is not mediating and out[2].key() == dep(
            3, 2, "N", 1, "e", "c+d").key()

    def test_returns_the_input_edge_exactly_when_it_is_unchanged(self):
        rng = random.Random(99)
        shared = moved = 0
        for _ in range(300):
            deps, occurrences = random_graph(rng)
            out = collapse_all_dependencies(deps, occurrences)
            membership = membership_from_occurrences(occurrences)
            # the edges that survive, in input order
            survivors = [d for d in deps
                         if classify_edge(d, membership) != INTERNAL]
            assert len(out) == len(survivors)
            for new, old in zip(out, survivors):
                assert (new is old) == (new.key() == old.key())
                shared += new is old
                moved += new is not old
        assert min(shared, moved) >= 100, (shared, moved)

    def test_out_of_range_index_raises(self):
        with pytest.raises(DataInconsistencyError):
            collapse_dependencies([dep(9, 2, "N/N", 1, "x", "y")], self.outcome)

    def test_figure_dep1_to_dep2(self, fixtures_dir):
        record = read_treebank(os.path.join(fixtures_dir,
                                            "fig_dep1_sentence.tb"))[0]
        gold = read_dependencies(
            os.path.join(fixtures_dir, "fig_dep1.deps"))["dep1"]
        expected = read_dependencies(
            os.path.join(fixtures_dir, "fig_dep2.deps"))["dep1"]
        occs = [MweOccurrence((0, 1), ("Mr.", "Vinken"), "proper-noun"),
                MweOccurrence((5, 6), ("Elsevier", "N.V."), "proper-noun")]
        outcome = collapse_tree(record.tree, occs)
        out = collapse_dependencies(gold, outcome)
        assert sorted(d.key() for d in out) == sorted(d.key() for d in expected)


def _nodes(tree):
    yield tree
    for child in tree.children:
        yield from _nodes(child)


def _spans(node, start, out):
    """Append (node, first leaf, last leaf) for every node of the subtree
    of `node`, whose first leaf has index `start`; returns the index after
    its last leaf."""
    end = start + 1 if node.token is not None else start
    for child in node.children:
        end = _spans(child, end, out)
    out.append((node, start, end - 1))
    return end


# ----------------------------------------------------------------------
# Reference tree collapse, as it ran before the single walk: the lowest
# dominating node of each occurrence is found by a fresh span walk, then
# the whole tree is copied and its leaves renumbered.  Kept as an oracle.
# ----------------------------------------------------------------------

def _reference_spans(tree):
    """Map node -> (lo, hi) inclusive leaf-index range; leaves are contiguous."""
    spans = {}

    def walk(node, offset):
        if node.is_leaf():
            spans[id(node)] = (offset, offset)
            return offset + 1
        for child in node.children:
            offset = walk(child, offset)
        lo = spans[id(node.children[0])][0]
        hi = spans[id(node.children[-1])][1]
        spans[id(node)] = (lo, hi)
        return offset

    walk(tree, 0)
    return spans


def reference_lowest_dominating_node(tree, indices):
    """The lowest node whose leaf span contains all `indices`.

    Returns (node, spans_only) where spans_only is True iff the node's
    leaves are exactly the given indices.  Unary chains are transparent:
    the deepest dominating node is returned.
    """
    if not indices:
        raise ValueError("indices must be non-empty")
    lo, hi = min(indices), max(indices)
    spans = _reference_spans(tree)
    if hi > spans[id(tree)][1]:
        raise ValueError("leaf index %d outside tree" % hi)
    node = tree
    while not node.is_leaf():
        inside = [c for c in node.children
                  if spans[id(c)][0] <= lo and hi <= spans[id(c)][1]]
        if not inside:
            break
        node = inside[0]
    node_lo, node_hi = spans[id(node)]
    spans_only = (node_lo == lo and node_hi == hi
                  and len(indices) == hi - lo + 1)
    return node, spans_only


def reference_collapse_tree(tree, occurrences):
    """Collapse sibling MWEs in a tree (algorithm 1).

    Each occurrence whose lowest dominating node spans exactly its unit
    indices is replaced by a single leaf labelled with that node's
    category; the rest are discarded.  The input tree is never mutated.
    """
    occurrences = sorted(occurrences, key=lambda o: o.start)
    n_tokens = len(leaf_nodes(tree))
    for occ in occurrences:
        if occ.indices[-1] >= n_tokens:
            raise ValueError("occurrence %r outside tree with %d leaves"
                             % (occ.joined, n_tokens))
    kept = []
    discarded = []
    replacements = {}
    categories = {}
    for occ in occurrences:
        node, spans_only = reference_lowest_dominating_node(tree, occ.indices)
        if spans_only:
            kept.append(occ)
            replacements[id(node)] = occ
            categories[occ] = node.category
        else:
            discarded.append(occ)

    def rebuild(node):
        occ = replacements.get(id(node))
        if occ is not None:
            return DerivationTree(node.category, (), occ.joined)
        if node.is_leaf():
            return DerivationTree(node.category, (), node.token)
        return DerivationTree(node.category,
                              tuple(rebuild(c) for c in node.children))

    collapsed = rebuild(tree)
    index_map = build_index_map(n_tokens, kept)
    return CollapseOutcome(collapsed, kept, discarded, index_map, categories)


def assert_matches_reference(tree, occurrences):
    """collapse_tree and the reference agree on every outcome field and
    the collapsed tree's text, collapse_tokens of the kept occurrences
    gives its leaf tokens, and a tree with nothing kept is returned as is;
    returns the outcome."""
    expected = reference_collapse_tree(tree, occurrences)
    outcome = collapse_tree(tree, occurrences)
    assert render_tree(outcome.tree) == render_tree(expected.tree)
    assert outcome.kept == expected.kept
    assert outcome.discarded == expected.discarded
    assert outcome.index_map == expected.index_map
    assert outcome.categories == expected.categories
    original = [token for _, token in leaves(tree)]
    assert collapse_tokens(original, outcome.kept) == [
        token for _, token in leaves(expected.tree)]
    if not outcome.kept:
        assert outcome.tree is tree
    return outcome


@pytest.fixture(scope="module")
def scaled_corpus():
    """The benchmark's seed-1 corpus of 2,000 sentences."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", os.path.join(ROOT, "perfbench", "corpus.py"))
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(ROOT)          # the module finds tools/ from the cwd
        spec.loader.exec_module(module)
    return module.generate(1, 2000)


class TestMatchesReference:
    def check(self, records, lexicon, preset):
        kept = 0
        for record in records:
            occurrences = recognize(lexicon, record.tokens, PRESETS[preset])
            kept += len(assert_matches_reference(record.tree,
                                                 occurrences).kept)
        assert kept > 0

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_shipped_corpus(self, corpus, lexicon, preset):
        self.check(corpus, lexicon, preset)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_scaled_corpus(self, scaled_corpus, lexicon, preset):
        self.check(scaled_corpus, lexicon, preset)


class TestCollapseTokens:
    def test_four_token_example(self):
        occ = MweOccurrence((0, 1), ("Mr.", "Vinken"), "proper-noun")
        tokens = collapse_tokens(["Mr.", "Vinken", "is", "chairman"], [occ])
        assert tokens == ["mr.+vinken", "is", "chairman"]
        assert build_index_map(4, [occ]) == {0: 0, 1: 0, 2: 1, 3: 2}

    def test_identity_without_occurrences(self):
        assert collapse_tokens(["a", "b"], []) == ["a", "b"]
        assert build_index_map(2, []) == {0: 0, 1: 1}

    def test_worked_example_shrinks_by_five(self, lexicon, worked_example_tokens):
        from ccgmwe.recognition import PRESETS, recognize
        occs = recognize(lexicon, worked_example_tokens, PRESETS["rec1"])
        tokens = collapse_tokens(worked_example_tokens, occs)
        assert len(tokens) == len(worked_example_tokens) - 5
        assert "publishers+information+bureau" in tokens


class TestCollapseAllDependencies:
    def test_matches_tree_route_modulo_category(self, fixtures_dir):
        record = read_treebank(os.path.join(fixtures_dir,
                                            "fig_dep1_sentence.tb"))[0]
        gold = extract_dependencies(record.tree)
        occs = [MweOccurrence((0, 1), ("Mr.", "Vinken"), "proper-noun"),
                MweOccurrence((5, 6), ("Elsevier", "N.V."), "proper-noun")]
        outcome = collapse_tree(record.tree, occs)
        with_tree = collapse_dependencies(gold, outcome)
        without_tree = collapse_all_dependencies(gold, occs)
        strip = lambda ds: sorted((d.i, d.j, d.arg_k, d.word_i, d.word_j)
                                  for d in ds)
        assert strip(with_tree) == strip(without_tree)

    def test_all_internal_yields_empty(self):
        occ = MweOccurrence((0, 1), ("a", "b"), "general")
        deps = [dep(0, 1, "N/N", 1, "a", "b")]
        assert collapse_all_dependencies(deps, [occ]) == []

    def test_no_occurrences_is_identity(self):
        deps = [dep(0, 1, "N/N", 1, "a", "b")]
        assert collapse_all_dependencies(deps, []) == deps

    def test_category_retained_for_swallowed_functor(self):
        occ = MweOccurrence((1, 2), ("according", "to"), "general")
        deps = [dep(3, 2, "PP/NP", 1, "bureau", "to")]
        out = collapse_all_dependencies(deps, [occ])
        assert out[0].word_j == "according+to"
        assert render(out[0].cat_j) == "PP/NP"


class TestCycles:
    def test_two_opposite_edges(self):
        deps = [dep(0, 1, "N/N", 1, "a", "b"), dep(1, 0, "N/N", 1, "b", "a")]
        assert detect_cycles(deps) == 1

    def test_figure_dep2_is_acyclic(self, fixtures_dir):
        deps = read_dependencies(
            os.path.join(fixtures_dir, "fig_dep2.deps"))["dep1"]
        assert detect_cycles(deps) == 0

    def test_empty(self):
        assert detect_cycles([]) == 0


def random_graph(rng):
    """A random dependency list plus a random disjoint MWE overlay."""
    n = rng.randint(4, 14)
    tokens = ["w%d" % i for i in range(n)]
    pairs = set()
    deps = []
    for _ in range(rng.randint(0, 2 * n)):
        i, j = rng.sample(range(n), 2)
        if (i, j) in pairs:
            continue
        pairs.add((i, j))
        deps.append(dep(i, j, "N/N", 1, tokens[i], tokens[j]))
    occurrences = []
    position = 0
    while position < n - 1:
        if rng.random() < 0.35:
            length = rng.randint(2, min(3, n - position))
            occurrences.append(MweOccurrence(
                tuple(range(position, position + length)),
                tuple(tokens[position:position + length]), "general"))
            position += length
        else:
            position += 1
    return deps, occurrences


class TestRandomGraphConservation:
    def test_edge_conservation_and_partition(self):
        rng = random.Random(1234)
        for _ in range(1000):
            deps, occurrences = random_graph(rng)
            membership = membership_from_occurrences(occurrences)
            classes = [classify_edge(d, membership) for d in deps]
            internal = classes.count(INTERNAL)
            assert internal + classes.count(MEDIATING) + \
                classes.count(EXTERNAL) == len(deps)
            out = collapse_all_dependencies(deps, occurrences)
            assert len(out) == len(deps) - internal
