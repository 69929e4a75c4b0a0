import importlib.util
import math
import os
import random
from collections import Counter, defaultdict

import pytest

from ccgmwe import parser
from ccgmwe.categories import parse_category, render
from ccgmwe.parser import (LEX, extract_dependencies, load_model, parse,
                           pos_for_category, save_model, train)
from ccgmwe.pipeline import read_config, run_pipeline
from ccgmwe.treebank import (DerivationTree, SentenceRecord, leaf_nodes,
                             leaves, parse_tree, read_dependencies,
                             read_tokens, read_treebank, render_tree,
                             write_treebank)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
C = parse_category


def record(sid, text):
    tree = parse_tree(text)
    return SentenceRecord(sid, tree, [t for _, t in leaves(tree)])


def pos_tag(model, tokens):
    """The tags the parser gives `tokens` under `model`."""
    return [parser._tag(model.indexes, token) for token in tokens]


def score_tree(model, tree):
    """Recompute log P(T, S) of a derivation under the model, mirroring the
    parser's emission rules exactly; None when any factor is unseen."""
    tokens = [token for _, token in leaves(tree)]
    tags = pos_tag(model, tokens)
    logp = 0.0
    stack = [tree]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        dist = model.rules.get(node.category)
        if dist is None:
            return None
        if node.is_leaf():
            prob = dist.get(LEX)
        else:
            prob = dist.get(tuple(c.category for c in node.children))
        if not prob:
            return None
        logp += math.log(prob)
    for index, node in enumerate(leaf_nodes(tree)):
        token = node.token
        if sum(model.token_pos.get(token, {}).values()) >= model.rare_threshold:
            prob = model.lexical.get(node.category, {}).get(token)
        else:
            prob = model.pos_backoff.get(tags[index], {}).get(node.category)
        if not prob:
            return None
        logp += math.log(prob)
    return logp


JOHN_BUYS_SHARES = "(S (NP John) (S\\NP ((S\\NP)/NP buys) (NP shares)))"


class TestTrain:
    def test_single_tree_gives_unit_probability(self):
        model = train([record("1", JOHN_BUYS_SHARES)], smoothing=0.0)
        s = C("S")
        expansion = (C("NP"), C("S\\NP"))
        assert model.rules[s][expansion] == pytest.approx(1.0)
        assert model.lexical[C("NP")]["John"] == pytest.approx(0.5)

    def test_two_equal_expansions_split_evenly(self):
        # N expands once to (N/N, N) and once lexically: 0.5 each
        model = train([record("1", "(N (N/N a) (N b))")], smoothing=0.0)
        dist = model.rules[C("N")]
        assert dist[(C("N/N"), C("N"))] == pytest.approx(0.5)
        assert dist[LEX] == pytest.approx(0.5)

    def test_distributions_sum_to_one(self, corpus):
        for smoothing in (0.0, 0.1, 1.0):
            model = train(corpus, smoothing=smoothing)
            for table in (model.rules, model.lexical, model.pos_backoff):
                for condition, dist in table.items():
                    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
                    assert all(0.0 < p <= 1.0 for p in dist.values())

    def test_empty_treebank_rejected(self):
        with pytest.raises(ValueError):
            train([], smoothing=0.1)

    def test_backoff_collects_tag_category_pairs(self, corpus):
        model = train(corpus, smoothing=0.0)
        assert C("NP/N") in model.pos_backoff["D"]
        assert C("(S\\NP)/NP") in model.pos_backoff["V"]


class TestPosMapping:
    @pytest.mark.parametrize("cat,tag", [
        ("N", "N"), ("NP", "N"), ("S", "V"), ("PP", "P"), ("PUNC", "PUNC"),
        ("N/N", "N"), ("NP/N", "D"), ("S\\NP", "V"), ("(S\\NP)/NP", "V"),
        ("((S\\NP)/NP)/PP", "V"), ("(NP\\NP)/NP", "P"), ("PP/NP", "P"),
        ("((S\\NP)\\(S\\NP))/PP", "P"), ("(S\\NP)\\(S\\NP)", "ADV"),
        ("(S/S)/(S/S)", "ADV")])
    def test_coarse_mapping(self, cat, tag):
        assert pos_for_category(C(cat)) == tag


class TestPosTag:
    def _model(self):
        trees = [record("1", "(S (NP park) (S\\NP walks))"),
                 record("2", "(S (NP park) (S\\NP walks))"),
                 record("3", "(S (NP park) (S\\NP walks))"),
                 record("4", "(NP (NP/N the) (N park))")]
        return train(trees, smoothing=0.0)

    def test_majority_tag(self):
        model = self._model()
        # park: 3x N (as NP leaf) vs 1x N (as N leaf) -> N either way
        assert pos_tag(model, ["park"]) == ["N"]
        assert pos_tag(model, ["walks"]) == ["V"]

    def test_unseen_token_gets_global_majority(self):
        model = self._model()
        assert pos_tag(model, ["zzz"]) == ["N"]

    def test_unseen_falls_back_to_lowercased_form(self):
        model = self._model()
        assert pos_tag(model, ["Walks"]) == ["V"]

    def test_tie_breaks_lexicographically(self):
        trees = [record("1", "(S (NP tie) (S\\NP tie))")]
        model = train(trees, smoothing=0.0)
        # one N observation, one V observation: N < V
        assert pos_tag(model, ["tie"]) == ["N"]


class TestParse:
    def test_reproduces_training_derivation(self):
        model = train([record("1", JOHN_BUYS_SHARES)], smoothing=0.0)
        result = parse(model, ["John", "buys", "shares"])
        assert result.tree is not None
        from ccgmwe.treebank import render_tree
        assert render_tree(result.tree) == JOHN_BUYS_SHARES

    def test_single_token(self):
        model = train([record("1", "(NP (N word))"),
                       record("2", "(NP (N word))")], smoothing=0.0)
        result = parse(model, ["word"])
        assert result.tree is not None
        assert render(result.tree.category) == "NP"

    def test_empty_input_rejected(self, corpus):
        model = train(corpus[:5], smoothing=0.0)
        with pytest.raises(ValueError):
            parse(model, [])

    def test_unseen_collapsed_mwe_parses_through_backoff(self):
        trees = [record(str(i), "(S (NP (NP/N the) (N plan)) (S\\NP works))")
                 for i in range(1, 4)]
        trees.append(record("4", "(NP (N plan))"))   # N is the majority tag
        model = train(trees, smoothing=0.0)
        result = parse(model, ["the", "part+of+speech", "works"])
        assert result.tree is not None
        leaf = [n for n in _leaf_nodes(result.tree) if n.token == "part+of+speech"]
        assert render(leaf[0].category) == "N"

    def test_rare_token_boundary(self):
        """A token seen rare_threshold - 1 times emits through the back-off
        of its tag, one seen rare_threshold times lexically, and an unseen
        one through the back-off of its lowercased form's tag."""
        trees = [record(str(i), "(S (N %s) (S\\N runs))" % token)
                 for i, token in enumerate(("often", "often", "rare"), 1)]
        model = train(trees, smoothing=0.0)
        n, verb = C("N"), C("S\\N")
        assert sum(model.token_pos["rare"].values()) == \
            model.rare_threshold - 1
        assert sum(model.token_pos["often"].values()) == model.rare_threshold
        assert pos_tag(model, ["Runs", "unseen"]) == ["V", "N"]

        def logprob(first, second):
            return (math.log(model.rules[C("S")][(n, verb)])
                    + math.log(model.rules[n][LEX]) + math.log(first)
                    + math.log(model.rules[verb][LEX]) + math.log(second))

        runs = model.lexical[verb]["runs"]
        # the two emissions of each token differ, so each check tells them
        # apart
        assert model.lexical[n]["rare"] != model.pos_backoff["N"][n]
        assert model.lexical[n]["often"] != model.pos_backoff["N"][n]
        assert parse(model, ["rare", "runs"]).logprob == pytest.approx(
            logprob(model.pos_backoff["N"][n], runs))
        assert parse(model, ["often", "runs"]).logprob == pytest.approx(
            logprob(model.lexical[n]["often"], runs))
        # "Runs" is unseen: the global tag N has no S\N, its lowercased
        # form's tag V has
        assert parse(model, ["often", "Runs"]).logprob == pytest.approx(
            logprob(model.lexical[n]["often"], model.pos_backoff["V"][verb]))

    def test_failure_is_a_value(self, corpus):
        model = train(corpus[:10], smoothing=0.0)
        result = parse(model, ["."])
        assert result.tree is None and result.logprob is None

    def test_training_set_coverage(self, corpus):
        model = train(corpus, smoothing=0.1)
        for rec in corpus:
            result = parse(model, rec.tokens)
            assert result.tree is not None, rec.sid
            assert [t for _, t in leaves(result.tree)] == rec.tokens

    def test_returned_probability_recomputes(self, corpus):
        model = train(corpus, smoothing=0.1)
        for rec in corpus[:20]:
            result = parse(model, rec.tokens)
            assert result.tree is not None
            recomputed = score_tree(model, result.tree)
            assert recomputed == pytest.approx(result.logprob, abs=1e-9)


def _leaf_nodes(tree):
    if tree.is_leaf():
        return [tree]
    out = []
    for child in tree.children:
        out.extend(_leaf_nodes(child))
    return out


# ----------------------------------------------------------------------
# Brute-force oracle: enumerate every derivation explicitly
# ----------------------------------------------------------------------

def _oracle_leaf_options(model, token, tag):
    options = []
    if sum(model.token_pos.get(token, {}).values()) >= model.rare_threshold:
        for cat, dist in model.lexical.items():
            lex = model.rules.get(cat, {}).get(LEX)
            if lex and token in dist:
                options.append((cat, math.log(lex) + math.log(dist[token])))
    else:
        for cat, prob in model.pos_backoff.get(tag, {}).items():
            lex = model.rules.get(cat, {}).get(LEX)
            if lex and prob:
                options.append((cat, math.log(lex) + math.log(prob)))
    return options


def _oracle_unary_extend(model, cat, logp, seen):
    yield cat, logp
    for parent, dist in model.rules.items():
        prob = dist.get((cat,))
        if prob and parent not in seen:
            yield from _oracle_unary_extend(model, parent, logp + math.log(prob),
                                            seen | {parent})


def oracle_best(model, tokens):
    """Max log-probability over all derivations, by explicit enumeration
    with repeat-free unary chains; None when nothing covers the input."""
    tags = pos_tag(model, tokens)
    n = len(tokens)
    table = {}
    for i in range(n):
        options = []
        for cat, logp in _oracle_leaf_options(model, tokens[i], tags[i]):
            options.extend(_oracle_unary_extend(model, cat, logp, {cat}))
        table[i, i + 1] = options
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            options = []
            for k in range(i + 1, j):
                for lcat, lp in table[i, k]:
                    for rcat, rp in table[k, j]:
                        for parent, dist in model.rules.items():
                            prob = dist.get((lcat, rcat))
                            if prob:
                                base = lp + rp + math.log(prob)
                                options.extend(_oracle_unary_extend(
                                    model, parent, base, {parent}))
            table[i, j] = options
    scores = [logp for cat, logp in table[0, n] if cat in model.roots]
    return max(scores) if scores else None


def random_fuzz_model(rng):
    """Train on a few random trees over <= 4 category symbols."""
    cats = [C(name) for name in ("A", "B", "CC", "D")[:rng.randint(2, 4)]]
    vocab = ["w%d" % i for i in range(rng.randint(2, 5))]

    def tree(budget):
        cat = rng.choice(cats)
        if budget <= 1 or rng.random() < 0.35:
            return DerivationTree(cat, (), rng.choice(vocab))
        if rng.random() < 0.2:
            return DerivationTree(cat, (tree(budget),))
        split = rng.randint(1, budget - 1)
        return DerivationTree(cat, (tree(split), tree(budget - split)))

    records = []
    for index in range(rng.randint(2, 6)):
        root = tree(rng.randint(1, 5))
        records.append(SentenceRecord(str(index), root,
                                      [t for _, t in leaves(root)]))
    smoothing = rng.choice([0.0, 0.1, 0.5])
    return train(records, smoothing=smoothing), vocab


class TestViterbiOptimality:
    def test_matches_exhaustive_enumeration(self):
        rng = random.Random(20240817)
        cases = 0
        failures_agree = 0
        while cases < 600:
            model, vocab = random_fuzz_model(rng)
            for _ in range(8):
                tokens = [rng.choice(vocab + ["unseen"])
                          for _ in range(rng.randint(1, 5))]
                expected = oracle_best(model, tokens)
                result = parse(model, tokens)
                if expected is None:
                    assert result.tree is None
                    failures_agree += 1
                else:
                    assert result.logprob is not None
                    assert abs(result.logprob - expected) < 1e-9
                cases += 1
        assert failures_agree > 0     # both sides saw genuine failures


class TestExtractDependencies:
    def test_john_buys_shares(self):
        tree = parse_tree(JOHN_BUYS_SHARES)
        deps = extract_dependencies(tree)
        keys = {(d.word_i, d.word_j, d.arg_k, render(d.cat_j)) for d in deps}
        assert keys == {("John", "buys", 1, "(S\\NP)/NP"),
                        ("shares", "buys", 2, "(S\\NP)/NP")}

    def test_single_leaf(self):
        assert extract_dependencies(parse_tree("(N word)")) == []

    def test_dep1_figure_integration(self, fixtures_dir):
        rec = read_treebank(os.path.join(fixtures_dir,
                                         "fig_dep1_sentence.tb"))[0]
        deps = extract_dependencies(rec.tree)
        gold = read_dependencies(os.path.join(fixtures_dir,
                                              "fig_dep1.deps"))["dep1"]
        assert sorted(d.key() for d in deps) == sorted(d.key() for d in gold)

    def test_edge_count_equals_combination_nodes(self, corpus):
        # apposition sentences emit one extra edge per extra head, so
        # restrict the check to sentences without flagged union nodes
        for rec in corpus:
            if "," in rec.tokens:
                continue
            deps = extract_dependencies(rec.tree)
            expected = _combination_nodes(rec.tree)
            assert len(deps) == expected, rec.sid

    def test_composition_node_emits_consumed_argument_edge(self):
        text = ("(S (NP (NP/N The) (N executive)) (S\\NP ((S\\NP)/NP "
                "((S\\NP)/(S\\NP) will) ((S\\NP)/NP buy)) (NP (NP/N a) "
                "(N report))))")
        deps = extract_dependencies(parse_tree(text))
        pairs = {(d.word_i, d.word_j, d.arg_k) for d in deps}
        assert ("buy", "will", 2) in pairs          # composition edge
        assert ("report", "buy", 2) in pairs        # object attaches to verb
        assert ("executive", "buy", 1) in pairs     # headship passed the aux

    def test_skips_underivable_nodes_with_count(self):
        tree = parse_tree("(S (PP odd) (NP pair))")
        stats = {}
        deps = extract_dependencies(tree, stats=stats)
        assert deps == []
        assert stats["skipped_nodes"] == 1

    def test_deterministic(self, corpus):
        for rec in corpus[:10]:
            first = extract_dependencies(rec.tree)
            second = extract_dependencies(rec.tree)
            assert [d.key() for d in first] == [d.key() for d in second]

    def test_constructor_built_trees_match_round_trip(self, tmp_path):
        """Leaf positions come from tree order, so a tree built in memory
        gives the same edges as its written and re-read copy."""
        spec = importlib.util.spec_from_file_location(
            "build_corpus", os.path.join(ROOT, "tools", "build_corpus.py"))
        build_corpus = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(build_corpus)
        john_sleeps = DerivationTree(C("S"), (
            DerivationTree(C("NP"), (), "John"),
            DerivationTree(C("S\\NP"), (), "sleeps")))
        trees = [john_sleeps] + build_corpus.build_sentences()
        assert len(trees) == 61
        path = str(tmp_path / "built.tb")
        write_treebank(path, [SentenceRecord(str(i), tree)
                              for i, tree in enumerate(trees)])
        for tree, rec in zip(trees, read_treebank(path)):
            assert [d.key() for d in extract_dependencies(tree)] == \
                [d.key() for d in extract_dependencies(rec.tree)]
        assert [d.key() for d in extract_dependencies(john_sleeps)] == \
            [(0, 1, "S\\NP", 1, "John", "sleeps")]


def _combination_nodes(tree):
    from ccgmwe.categories import derivation_rule
    count = 0
    stack = [tree]
    while stack:
        node = stack.pop()
        stack.extend(node.children)
        if len(node.children) == 2:
            left, right = node.children
            if derivation_rule(left.category, right.category, node.category):
                count += 1
    return count


class TestPersistence:
    def test_round_trip_preserves_parses(self, corpus, tmp_path):
        model = train(corpus[:40], smoothing=0.1)
        path = tmp_path / "model.tsv"
        save_model(str(path), model)
        again = load_model(str(path))
        assert again.smoothing == model.smoothing
        assert again.rules == model.rules
        assert again.lexical == model.lexical
        assert again.pos_backoff == model.pos_backoff
        for rec in corpus[40:50]:
            first = parse(model, rec.tokens)
            second = parse(again, rec.tokens)
            assert (first.tree is None) == (second.tree is None)
            if first.tree is not None:
                assert first.logprob == pytest.approx(second.logprob, abs=1e-12)

    def test_load_gives_the_saved_model(self, corpus, tmp_path):
        """Every field survives the file, and the loaded model saves to the
        same bytes."""
        model = train(corpus[:40], smoothing=0.1)
        parse(model, corpus[40].tokens)     # the cached indexes are no field
        first, second = tmp_path / "m1.tsv", tmp_path / "m2.tsv"
        save_model(str(first), model)
        again = load_model(str(first))
        assert again == model
        save_model(str(second), again)
        assert second.read_bytes() == first.read_bytes()

    def test_save_is_deterministic(self, corpus, tmp_path):
        model = train(corpus[:10], smoothing=0.1)
        one, two = tmp_path / "m1.tsv", tmp_path / "m2.tsv"
        save_model(str(one), model)
        save_model(str(two), model)
        assert one.read_bytes() == two.read_bytes()


# ----------------------------------------------------------------------
# Reference CKY keyed by Category, as the parser ran before its charts
# moved to dense integer ids; the integer parser must match it exactly
# ----------------------------------------------------------------------

def _reference_pos_tag(model, tokens):
    global_counts = Counter()
    for dist in model.token_pos.values():
        global_counts.update(dist)
    default = _best_tag(global_counts) if global_counts else "N"
    tags = []
    for token in tokens:
        dist = model.token_pos.get(token)
        if dist is None:
            dist = model.token_pos.get(token.lower())
        tags.append(_best_tag(dist) if dist else default)
    return tags


def _best_tag(dist):
    return sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def _reference_indexes(model):
    binary = defaultdict(list)
    unary = defaultdict(list)
    for parent in sorted(model.rules, key=render):
        for expansion, prob in sorted(model.rules[parent].items(),
                                      key=lambda kv: tuple(map(render, kv[0]))):
            if expansion is LEX or len(expansion) == 0:
                continue
            logp = math.log(prob)
            if len(expansion) == 1:
                unary[expansion[0]].append((parent, logp))
            else:
                binary[expansion].append((parent, logp))
    lex_index = defaultdict(list)
    backoff_index = defaultdict(list)
    for cat in sorted(model.lexical, key=render):
        lex = model.rules.get(cat, {}).get(LEX)
        if lex:
            for token, prob in model.lexical[cat].items():
                lex_index[token].append((cat, math.log(lex) + math.log(prob)))
    for tag in sorted(model.pos_backoff):
        for cat, prob in sorted(model.pos_backoff[tag].items(),
                                key=lambda kv: render(kv[0])):
            lex = model.rules.get(cat, {}).get(LEX)
            if lex:
                backoff_index[tag].append((cat, math.log(lex) + math.log(prob)))
    return binary, unary, lex_index, backoff_index


def _reference_unary_closure(unary, cell):
    agenda = list(cell)
    while agenda:
        child = agenda.pop(0)
        base = cell[child][0]
        for parent, logq in unary.get(child, ()):
            cand = base + logq
            entry = cell.get(parent)
            if entry is None or cand > entry[0]:
                cell[parent] = (cand, ("U", child))
                agenda.append(parent)


def reference_parse(model, tokens):
    """(rendered tree or None, logprob or None, chart entries)."""
    binary, unary, lex_index, backoff_index = _reference_indexes(model)
    tags = _reference_pos_tag(model, tokens)
    n = len(tokens)
    chart = {}
    entries = 0
    for i, token in enumerate(tokens):
        if sum(model.token_pos.get(token, {}).values()) >= model.rare_threshold:
            candidates = lex_index.get(token, ())
        else:
            candidates = backoff_index.get(tags[i], ())
        cell = {}
        for cat, logp in candidates:
            entry = cell.get(cat)
            if entry is None or logp > entry[0]:
                cell[cat] = (logp, None)
        _reference_unary_closure(unary, cell)
        chart[i, i + 1] = cell
        entries += len(cell)
    for width in range(2, n + 1):
        for i in range(n - width + 1):
            j = i + width
            cell = {}
            for k in range(i + 1, j):
                for lcat, (lp, _) in chart[i, k].items():
                    for rcat, (rp, _) in chart[k, j].items():
                        for parent, logq in binary.get((lcat, rcat), ()):
                            cand = lp + rp + logq
                            entry = cell.get(parent)
                            if entry is None or cand > entry[0]:
                                cell[parent] = (cand, (k, lcat, rcat))
            _reference_unary_closure(unary, cell)
            chart[i, j] = cell
            entries += len(cell)
    best_cat, best_logp = None, None
    for cat in sorted(model.roots, key=render):
        entry = chart[0, n].get(cat)
        if entry is not None and (best_logp is None or entry[0] > best_logp):
            best_cat, best_logp = cat, entry[0]
    if best_cat is None:
        return None, None, entries

    def build(i, j, cat):
        backpointer = chart[i, j][cat][1]
        if backpointer is None:
            return "(%s %s)" % (render(cat), tokens[i])
        if backpointer[0] == "U":
            return "(%s %s)" % (render(cat), build(i, j, backpointer[1]))
        k, lcat, rcat = backpointer
        return "(%s %s %s)" % (render(cat), build(i, k, lcat),
                               build(k, j, rcat))

    return build(0, n, best_cat), best_logp, entries


def _assert_matches_reference(model, tokens):
    result = parse(model, tokens)
    rendered = None if result.tree is None else render_tree(result.tree)
    assert (rendered, result.logprob, result.stats["chart_entries"]) == \
        reference_parse(model, tokens), tokens
    return result.tree is not None


@pytest.fixture(scope="module", params=["rec1", "rec2", "rec3", "rec4", "rec5"])
def preset_run(request, tmp_path_factory):
    """Models A and B and the three test token files of one preset."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    configs = os.path.join(root, "data", "configs")
    config = read_config([os.path.join(configs, "base.cfg"),
                          os.path.join(configs, request.param + ".cfg")])
    config.treebank = os.path.join(root, config.treebank)
    config.lexicon = os.path.join(root, config.lexicon)
    config.output = str(tmp_path_factory.mktemp(request.param))
    config.iterations = 64
    run_pipeline(config)
    out = config.output
    models = [load_model(os.path.join(out, name))
              for name in ("model_a.tsv", "model_b.tsv")]
    token_files = [read_tokens(os.path.join(out, name))
                   for name in ("tokens_test.txt", "tokens_test_collapsed.txt",
                                "tokens_test_fully_collapsed.txt")]
    return models, token_files


class TestIntegerChartMatchesReference:
    def test_every_test_sentence(self, preset_run):
        models, token_files = preset_run
        parsed = 0
        for model in models:
            for sentences in token_files:
                for tokens in sentences:
                    parsed += _assert_matches_reference(model, tokens)
        assert parsed > 0

    def test_concatenated_sentences(self, preset_run):
        models, token_files = preset_run
        for model in models:
            for sentences in token_files:
                stream = [token for tokens in sentences for token in tokens]
                for length in (16, 24, 32, 48, 64):
                    _assert_matches_reference(model, stream[:length])


class TestSparseChart:
    """Charts with empty cells: the split-point sets skip them and the
    cells stay None, with the reference's tree, logprob and entry count."""

    @staticmethod
    def model_with_gap():
        """A model whose token "gap" has no leaf candidate: a tokpos row
        counts it as frequent, and no lex row emits it."""
        model = train([record("1", JOHN_BUYS_SHARES)], smoothing=0.0)
        model.token_pos["gap"] = {"N": model.rare_threshold}
        return model

    def test_middle_token_without_leaf_candidate(self):
        model = self.model_with_gap()
        assert not _assert_matches_reference(model, ["John", "gap", "shares"])
        assert parse(model, ["John", "gap", "shares"]).stats == {
            "chart_entries": 2}

    def test_one_token_with_empty_cell(self):
        model = self.model_with_gap()
        assert not _assert_matches_reference(model, ["gap"])
        assert parse(model, ["gap"]).stats == {"chart_entries": 0}

    def test_only_width_one_spans_hold_entries(self):
        model = train([record("1", JOHN_BUYS_SHARES)], smoothing=0.0)
        # three NP leaves, and no rule combines NP with NP
        tokens = ["shares", "John", "shares"]
        assert not _assert_matches_reference(model, tokens)
        assert parse(model, tokens).stats == {"chart_entries": 3}
