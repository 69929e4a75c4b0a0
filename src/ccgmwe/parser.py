"""A small generative CCG chart parser conditioned on lexical categories.

The model decomposes the joint probability of a derivation and its sentence
into one expansion probability per node plus one emission per leaf:

    P(T, S) = prod_nodes P(expansion | category) * prod_leaves emission

where a leaf's expansion is the distinguished LEX outcome and its emission
is P(token | category) for tokens seen at least `rare_threshold` times in
training.  Rare and unseen tokens instead emit through a POS back-off,
P(category | tag), with tags supplied by a unigram frequency tagger trained
on the same data; the leaf candidates of training tokens are compiled
once per model, so parsing tags only unseen tokens.  Decoding is Viterbi
CKY over the trained expansion inventory; candidate binary expansions are
the treebank-observed ones, which subsume the apply/compose-derivable pairs
and also cover non-combinatory absorption nodes seen in training.  One
table of model-file sections drives both save_model and load_model.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict, deque
from functools import lru_cache
from operator import attrgetter

from .categories import (FORWARD_APPLY, FORWARD_COMPOSE, arity,
                         derivation_rule, is_modifier, parse_category, render,
                         target)
from .records import Record
from .treebank import DerivationTree, Dependency, Lines, check_smoothing

# Leaf expansion marker: a category "expands" to LEX when it emits a token.
LEX = ()

# Atoms treated as punctuation for absorption nodes and head passing.
PUNCT_ATOMS = {"PUNC", ",", ".", ";", ":", "conj", "LRB", "RRB"}

_DETERMINER = parse_category("NP/N")

_CATEGORY_OF = attrgetter("category")

_ATOM_POS = {"S": "V", "N": "N", "NP": "N", "PP": "P", "PUNC": "PUNC",
             "conj": "PUNC"}


@lru_cache(maxsize=None)
def pos_for_category(cat):
    """Coarse POS tag (N, V, P, D, ADV, PUNC) for a lexical category.

    The synthetic data carries no explicit tags, so the tagger's training
    pairs are derived from the lexical categories themselves with this
    fixed mapping: X|X modifiers of verbal projections are ADV, NP/N is D,
    functors whose result is itself a modifier are prepositions, and
    everything else follows its target atom.
    """
    if cat.is_atom():
        return _ATOM_POS.get(cat.atom, "N")
    if is_modifier(cat):
        return "ADV" if target(cat).atom == "S" else "N"
    if cat == _DETERMINER:
        return "D"
    if cat.result.is_functor() and is_modifier(cat.result):
        return "P"
    return _ATOM_POS.get(target(cat).atom, "N")


class ParserModel(Record):
    """Tables of the generative model; immutable once trained.

    rules maps a Category to {expansion tuple or LEX: prob}, lexical a
    Category to {token: prob}, pos_backoff a tag to {Category: prob},
    token_pos a token to {tag: count} and roots a Category to its prob
    over training roots.
    """

    __slots__ = ("rules", "lexical", "pos_backoff", "token_pos", "roots",
                 "smoothing", "rare_threshold", "_indexes")

    def __init__(self, rules, lexical, pos_backoff, token_pos, roots,
                 smoothing=0.0, rare_threshold=2):
        self.rules = rules
        self.lexical = lexical
        self.pos_backoff = pos_backoff
        self.token_pos = token_pos
        self.roots = roots
        self.smoothing = smoothing
        self.rare_threshold = rare_threshold
        self._indexes = None

    @property
    def indexes(self):
        """The CKY tables of _build_indexes, built on first use."""
        if self._indexes is None:
            self._indexes = _build_indexes(self)
        return self._indexes


class ParseResult(Record):
    """Best derivation for a token sequence, or a failure marker.

    tree/logprob are None when no sentence-rooted derivation covers the
    input; stats carries the chart's entry count under "chart_entries".
    """

    __slots__ = ("tree", "logprob", "stats")


def _smoothed(counter, smoothing):
    total = sum(counter.values())
    denom = total + smoothing * len(counter)
    return {outcome: (count + smoothing) / denom
            for outcome, count in counter.items()}


class Training:
    """Counts of training trees, which add() takes one tree at a time and
    keeps none of; model() estimates a ParserModel from them."""

    def __init__(self):
        self.leaf_counts = Counter()    # (category, token) -> count of leaves
        self.node_counts = Counter()    # (category, child categories) -> count
        self.root_counts = Counter()    # root category -> count of trees

    def add(self, tree):
        leaves, nodes = [], []  # of this tree, counted in one update each
        stack = [tree]
        while stack:
            node = stack.pop()
            if node.token is not None:
                leaves.append((node.category, node.token))
            else:
                children = node.children
                nodes.append((node.category,
                              tuple(map(_CATEGORY_OF, children))))
                stack.extend(children)
        self.leaf_counts.update(leaves)
        self.node_counts.update(nodes)
        self.root_counts[tree.category] += 1

    def model(self, smoothing=0.0):
        """Relative frequencies with add-`smoothing` over each condition's
        observed outcome inventory, so every conditional distribution sums
        to one.  The POS back-off collects (tag of token, lexical category)
        pairs over all training leaves."""
        check_smoothing(smoothing)
        if not self.root_counts:
            raise ValueError("cannot train on an empty treebank")
        rule_counts = defaultdict(Counter)
        lex_counts = defaultdict(Counter)
        backoff_counts = defaultdict(Counter)
        token_pos = defaultdict(Counter)
        for (cat, expansion), count in self.node_counts.items():
            rule_counts[cat][expansion] += count
        for (cat, token), count in self.leaf_counts.items():
            rule_counts[cat][LEX] += count
            lex_counts[cat][token] += count
            tag = pos_for_category(cat)
            backoff_counts[tag][cat] += count
            token_pos[token][tag] += count
        return ParserModel(
            rules={c: _smoothed(v, smoothing) for c, v in rule_counts.items()},
            lexical={c: _smoothed(v, smoothing) for c, v in lex_counts.items()},
            pos_backoff={t: _smoothed(v, smoothing) for t, v in backoff_counts.items()},
            token_pos={t: dict(v) for t, v in token_pos.items()},
            roots=_smoothed(self.root_counts, 0.0),
            smoothing=smoothing,
        )


def train(records, smoothing=0.0):
    """The ParserModel of the trees of `records`, read once (see Training)."""
    training = Training()
    for record in records:
        training.add(record.tree)
    return training.model(smoothing)


def _best_tag(dist):
    return sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def _tag(indexes, token):
    """Unigram tagging: the most frequent training tag of `token`, else of
    its lowercased form, else of all tokens.  Ties pick the smallest tag."""
    best = indexes["best_tag"]
    if token in best:
        return best[token]
    return best.get(token.lower(), indexes["default_tag"])


def _build_indexes(model):
    """Dense-int tables for CKY.

    Every category of the model gets an id in render order, so ascending
    ids reproduce the render-ordered iteration that fixes tie-breaking.
    Binary rules are nested as left id -> right id -> [(parent id, logp)];
    `categories` maps ids back for tree building.  The tagger's per-token
    and global best tags are computed here once per model, and so are the
    leaf candidates of every training token: its lexical entries if seen
    at least `rare_threshold` times, else the back-off list of its tag.
    """
    cats = set(model.rules) | set(model.lexical) | set(model.roots)
    for dist in model.rules.values():
        for expansion in dist:
            cats.update(expansion)
    for dist in model.pos_backoff.values():
        cats.update(dist)
    categories = sorted(cats, key=render)
    ids = {cat: index for index, cat in enumerate(categories)}
    binary = defaultdict(dict)
    unary = defaultdict(list)
    for parent in sorted(model.rules, key=render):
        for expansion, prob in sorted(model.rules[parent].items(),
                                      key=lambda kv: tuple(map(render, kv[0]))):
            if len(expansion) == 1:
                unary[ids[expansion[0]]].append((ids[parent], math.log(prob)))
            elif len(expansion) == 2:
                left, right = expansion
                binary[ids[left]].setdefault(ids[right], []).append(
                    (ids[parent], math.log(prob)))
    lex_index = defaultdict(list)
    for cat in sorted(model.lexical, key=render):
        lex_logp = _log_lex_expansion(model, cat)
        if lex_logp is None:
            continue
        for token, prob in model.lexical[cat].items():
            lex_index[token].append((ids[cat], lex_logp + math.log(prob)))
    backoff_index = defaultdict(list)
    for tag in sorted(model.pos_backoff):
        for cat, prob in sorted(model.pos_backoff[tag].items(),
                                key=lambda kv: render(kv[0])):
            lex_logp = _log_lex_expansion(model, cat)
            if lex_logp is None:
                continue
            backoff_index[tag].append((ids[cat], lex_logp + math.log(prob)))
    global_counts = Counter()
    for dist in model.token_pos.values():
        global_counts.update(dist)
    default_tag = _best_tag(global_counts) if global_counts else "N"
    best_tag, leaves = {}, {}
    for token, dist in model.token_pos.items():
        tag = best_tag[token] = _best_tag(dist) if dist else default_tag
        leaves[token] = (lex_index.get(token, ())
                         if sum(dist.values()) >= model.rare_threshold
                         else backoff_index.get(tag, ()))
    return {
        "categories": categories,
        "binary": dict(binary),
        "unary": dict(unary),
        "leaves": leaves,
        "backoff": dict(backoff_index),
        "roots": sorted(ids[cat] for cat in model.roots),
        "best_tag": best_tag,
        "default_tag": default_tag,
    }


def _log_lex_expansion(model, cat):
    prob = model.rules.get(cat, {}).get(LEX)
    return math.log(prob) if prob else None


def _leaf_candidates(indexes, token):
    candidates = indexes["leaves"].get(token)
    if candidates is None:      # unseen in training: back off by its tag
        return indexes["backoff"].get(_tag(indexes, token), ())
    return candidates


def _unary_closure(unary_index, scores, backs):
    agenda = deque(scores)
    while agenda:
        child = agenda.popleft()
        base = scores[child]
        for parent, logq in unary_index.get(child, ()):
            cand = base + logq
            old = scores.get(parent)
            if old is None or cand > old:
                scores[parent] = cand
                backs[parent] = (child,)
                agenda.append(parent)


def parse(model, tokens):
    """Viterbi CKY decoding; returns the best sentence-rooted derivation.

    A span (i, j) is split only at the k where both (i, k) and (k, j) hold
    an entry, taken in ascending order as a full scan would visit them, so
    every tie resolves the same way.  A span with no split point allocates
    nothing, and every span with no entry stays None in the chart.
    Failure to cover the input with a training-root category is a normal
    outcome reported through the result, not an error.
    """
    if not tokens:
        raise ValueError("cannot parse an empty token sequence")
    indexes = model.indexes
    binary_index = indexes["binary"]
    unary_index = indexes["unary"]
    n = len(tokens)
    # span (i, j) lives at [i][j]: category id -> best log-probability, and
    # category id -> backpointer: None for a leaf, (child id,) for a unary
    # node, (split, left id, right id) for a binary one; a span with no
    # entry stays None.  Bit k of ends[i] is set when span (i, k) is
    # non-empty and bit k of starts[j] when span (k, j) is, so the set bits
    # of ends[i] & starts[j] are the split points of (i, j).  A width-1
    # span has no split point and at most one leaf candidate per category.
    score_chart = [[None] * (n + 1) for _ in range(n)]
    back_chart = [[None] * (n + 1) for _ in range(n)]
    ends = [0] * n
    starts = [0] * (n + 1)
    entries = 0
    for width in range(1, n + 1):
        for i in range(0, n - width + 1):
            j = i + width
            if width == 1:
                scores = dict(_leaf_candidates(indexes, tokens[i]))
                backs = dict.fromkeys(scores)
            else:
                splits = ends[i] & starts[j]
                if not splits:
                    continue
                score_row = score_chart[i]
                scores, backs = {}, {}
                while splits:           # split points in ascending order
                    lowest = splits & -splits
                    splits ^= lowest
                    k = lowest.bit_length() - 1
                    right_cell = score_chart[k][j]
                    for lid, lp in score_row[k].items():
                        by_right = binary_index.get(lid)
                        if by_right is None:
                            continue
                        for rid, rp in right_cell.items():
                            rules = by_right.get(rid)
                            if rules is None:
                                continue
                            for pid, logq in rules:
                                cand = lp + rp + logq
                                old = scores.get(pid)
                                if old is None or cand > old:
                                    scores[pid] = cand
                                    backs[pid] = (k, lid, rid)
            if not scores:
                continue
            if not unary_index.keys().isdisjoint(scores):  # else no growth
                _unary_closure(unary_index, scores, backs)
            score_chart[i][j] = scores
            back_chart[i][j] = backs
            ends[i] |= 1 << j
            starts[j] |= 1 << i
            entries += len(scores)
    stats = {"chart_entries": entries}
    best_id, best_logp = None, None
    top = score_chart[0][n] or {}
    for cid in indexes["roots"]:
        logp = top.get(cid)
        if logp is not None and (best_logp is None or logp > best_logp):
            best_id, best_logp = cid, logp
    if best_id is None:
        return ParseResult(None, None, stats)
    tree = _build_tree(back_chart, indexes["categories"], tokens, 0, n, best_id)
    return ParseResult(tree, best_logp, stats)


def _build_tree(back_chart, categories, tokens, i, j, cid):
    backpointer = back_chart[i][j][cid]
    cat = categories[cid]
    if backpointer is None:
        return DerivationTree(cat, (), tokens[i])
    if len(backpointer) == 1:
        return DerivationTree(cat, (_build_tree(back_chart, categories, tokens,
                                                i, j, backpointer[0]),))
    k, lid, rid = backpointer
    return DerivationTree(cat, (
        _build_tree(back_chart, categories, tokens, i, k, lid),
        _build_tree(back_chart, categories, tokens, k, j, rid)))


# ----------------------------------------------------------------------
# Dependency extraction
# ----------------------------------------------------------------------

def extract_dependencies(tree, stats=None):
    """Extract the 6-tuple dependencies encoded by a derivation.

    Every application or composition node emits an edge from the heads of
    its argument subtree to the heads of its functor subtree; arg_k is the
    functor-side category's remaining arity at that node and cat_j the
    functor head leaf's lexical category.  Headship passes to the argument
    under X|X modifiers and the NP/N determiner; punctuation absorption
    nodes and same-category (coordination or apposition) nodes emit no
    edge, the latter exposing the union of their children's heads.  Nodes
    that fit no rule are skipped; when `stats` is a dict the count of
    skipped nodes is accumulated under "skipped_nodes".
    """
    deps = []
    skipped = []
    _heads(tree, 0, deps, skipped)
    if stats is not None:
        stats["skipped_nodes"] = stats.get("skipped_nodes", 0) + len(skipped)
    return deps


def _heads(node, start, deps, skipped):
    """Walk the subtree of `node`, whose first leaf has index `start`;
    returns the index after its last leaf and the subtree's heads as
    (index, leaf) pairs in leaf order.  Appends the subtree's edges to
    `deps` and each node that fits no rule to `skipped`."""
    if node.token is not None:
        return start + 1, ((start, node),)
    children = node.children
    if len(children) == 1:
        return _heads(children[0], start, deps, skipped)
    left, right = children
    mid, left_heads = _heads(left, start, deps, skipped)
    end, right_heads = _heads(right, mid, deps, skipped)
    rule = derivation_rule(left.category, right.category, node.category)
    if rule is None:
        lcat, rcat = left.category, right.category
        if node.category == rcat and lcat.is_atom() and lcat.atom in PUNCT_ATOMS:
            return end, right_heads
        if node.category == lcat and rcat.is_atom() and rcat.atom in PUNCT_ATOMS:
            return end, left_heads
        if node.category != lcat or node.category != rcat:
            skipped.append(node)
        # the left subtree's leaves precede the right's: still in leaf order
        return end, left_heads + right_heads
    if rule in (FORWARD_APPLY, FORWARD_COMPOSE):
        functor_node, functor_heads, arg_heads = left, left_heads, right_heads
    else:
        functor_node, functor_heads, arg_heads = right, right_heads, left_heads
    slot = arity(functor_node.category)
    for j, functor_head in functor_heads:
        if not 1 <= slot <= arity(functor_head.category):
            skipped.append(node)
            continue
        for i, arg_head in arg_heads:
            deps.append(Dependency(i, j, functor_head.category, slot,
                                   arg_head.token, functor_head.token))
    functor_cat = functor_node.category
    if is_modifier(functor_cat) or functor_cat == _DETERMINER:
        return end, arg_heads
    return end, functor_heads


# ----------------------------------------------------------------------
# Model persistence: TSV of (table, condition, outcome, value) rows
# ----------------------------------------------------------------------

def _render_expansion(expansion):
    if expansion is LEX or len(expansion) == 0:
        return "<LEX>"
    return " ".join(render(cat) for cat in expansion)


def _parse_expansion(text):
    if text == "<LEX>":
        return LEX
    return tuple(parse_category(part) for part in text.split(" "))


def _probability(text):
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError("probability must be a finite number > 0, got %r"
                         % text)
    return value


def _at_least_one(text, what):
    value = int(text)
    if value < 1:
        raise ValueError("%s must be at least 1, got %d" % (what, value))
    return value


def _empty(text, what):
    if text:
        raise ValueError("%s must be empty, got %r" % (what, text))


# meta key -> converter of its value; each key is a ParserModel field
_META = {"smoothing": lambda text: check_smoothing(float(text)),
         "rare_threshold": lambda text: _at_least_one(text, "rare_threshold")}

# nested table -> (ParserModel field, condition codec, outcome codec,
# converter of its value), in file order between the meta and root rows; a
# codec is a (render, parse) pair between a key and the text rows sort by
_CATEGORY = (render, parse_category)
_TEXT = (str, str)
_TABLES = {
    "rule": ("rules", _CATEGORY, (_render_expansion, _parse_expansion),
             _probability),
    "lex": ("lexical", _CATEGORY, _TEXT, _probability),
    "backoff": ("pos_backoff", _TEXT, _CATEGORY, _probability),
    "tokpos": ("token_pos", _TEXT, _TEXT,
               lambda text: _at_least_one(text, "tokpos count")),
}


def save_model(path, model):
    rows = [("meta", key, "", repr(getattr(model, key))) for key in _META]
    for table, (name, (condition, _), (outcome, _), _) in _TABLES.items():
        dists = getattr(model, name)
        for key in sorted(dists, key=condition):
            rows += [(table, condition(key), outcome(out), repr(value))
                     for out, value in sorted(dists[key].items(),
                                              key=lambda kv: outcome(kv[0]))]
    rows += [("root", "", render(cat), repr(model.roots[cat]))
             for cat in sorted(model.roots, key=render)]
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write("\t".join(row) + "\n")


def load_model(path):
    tables = {table: defaultdict(dict) for table in _TABLES}
    roots = {}
    meta = {}                   # a missing key keeps its ParserModel default
    with Lines(path) as lines:
        for line in lines:
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError("expected 4 fields")
            table, condition, outcome, value = fields
            if table == "meta":
                if condition not in _META:
                    raise ValueError("unknown meta key %r" % condition)
                _empty(outcome, "outcome of a meta row")
                dist, key, value = meta, condition, _META[condition](value)
            elif table == "root":
                _empty(condition, "condition of a root row")
                value = _probability(value)
                dist, key = roots, parse_category(outcome)
            elif table in _TABLES:
                _, (_, cond), (_, out), convert = _TABLES[table]
                value = convert(value)
                dist, key = tables[table][cond(condition)], out(outcome)
            else:
                raise ValueError("unknown table %r" % table)
            if key in dist:
                raise ValueError("repeated %s row" % table)
            dist[key] = value
    return ParserModel(**{_TABLES[table][0]: dict(dists)
                          for table, dists in tables.items()},
                       roots=roots, **meta)
