"""Collapsing MWEs in derivation trees, dependency graphs and token
sequences.

Tree collapsing replaces an MWE's units with a single leaf only when the
units are siblings, i.e. some node dominates all and only the units; the
new leaf takes the dominating node's category and the '+'-joined lowercased
token.  Non-sibling MWEs are discarded.  Dependency collapsing then deletes
internal edges (both endpoints inside one collapsed MWE), redirects
mediating edges to the joined token (substituting the MWE's category when
the functor endpoint is swallowed) and re-indexes everything through the
collapsed tokenization.  A token-level variant treats every recognized MWE
as collapsible, which is how fully-collapsed test data is produced.

Every function here takes the occurrences of one sentence in the form
recognition.recognize and rebind_tokens return them: sorted by first
unit, pairwise index-disjoint and inside the sentence.  None checks them
again; rebind_tokens checks the ones a file supplies.
"""

from __future__ import annotations

import operator

from .records import Record
from .treebank import DerivationTree


class DataInconsistencyError(ValueError):
    """A dependency references a leaf index unknown to the collapse."""


class CollapseOutcome(Record):
    """Result of collapsing one tree.

    kept holds the occurrences that were spans-only constituents (now
    single leaves), discarded the rest.  index_map sends every original
    leaf index to its collapsed index; all units of a kept occurrence map
    to the same collapsed position.  categories records the category each
    kept occurrence inherited from its dominating node.
    """

    __slots__ = ("tree", "kept", "discarded", "index_map", "categories")


def build_index_map(n_tokens, collapsed_occurrences):
    """Map original index -> collapsed index when the given (disjoint)
    occurrences are each merged into their first unit's slot and every
    other token shifts left past the merged units."""
    first = {i: occ.start for occ in collapsed_occurrences
             for i in occ.indices[1:]}
    index_map = {}
    new = 0
    for old in range(n_tokens):
        if old in first:
            index_map[old] = index_map[first[old]]
        else:
            index_map[old] = new
            new += 1
    return index_map


def _match(node, start, wanted, found):
    """Post-order walk over the subtree of `node`, whose first leaf has
    index `start`; returns the index after its last leaf.  Each occurrence
    in `wanted`, keyed by its (first, last) unit index, moves to `found`
    with the first node that spans exactly those leaves: descendants come
    first, so a unary chain gives its lowest node."""
    if node.token is not None:
        end = start + 1
    else:
        end = start
        for child in node.children:
            end = _match(child, end, wanted, found)
    if wanted:
        occ = wanted.pop((start, end - 1), None)
        if occ is not None:
            found[occ] = node
    return end


def _build(node, replacements):
    """`node` with each node whose id is a key of `replacements` made a
    leaf of its occurrence's joined token.  Only the nodes above a
    replacement are new; every other subtree is shared with the input."""
    occ = replacements.get(id(node))
    if occ is not None:
        return DerivationTree(node.category, (), occ.joined)
    if node.token is not None:
        return node
    children = tuple([_build(child, replacements)
                      for child in node.children])
    if all(map(operator.is_, children, node.children)):
        return node
    return DerivationTree(node.category, children)


def collapse_tree(tree, occurrences):
    """Collapse sibling MWEs in a tree (algorithm 1).

    Each continuous occurrence whose units some node spans exactly is
    replaced by a single leaf labelled with the lowest such node's
    category; the rest are discarded.  The input tree is never mutated:
    with nothing kept it is returned as is, otherwise outcome.tree shares
    every subtree it did not change with the input (only each kept MWE's
    leaf and the nodes above it are new).  collapse_tokens(leaf tokens,
    outcome.kept) gives the collapsed tree's leaf tokens.
    """
    wanted = {(occ.start, occ.indices[-1]): occ
              for occ in occurrences if occ.is_continuous()}
    found = {}
    n_tokens = _match(tree, 0, wanted, found)
    kept = [occ for occ in occurrences if occ in found]
    discarded = [occ for occ in occurrences if occ not in found]
    index_map = build_index_map(n_tokens, kept)
    if not kept:
        return CollapseOutcome(tree, kept, discarded, index_map, {})
    collapsed = _build(tree, {id(node): occ for occ, node in found.items()})
    categories = {occ: node.category for occ, node in found.items()}
    return CollapseOutcome(collapsed, kept, discarded, index_map, categories)


def collapse_dependencies(deps, outcome):
    """Rewrite a dependency graph after tree collapsing (algorithm 2).

    Internal edges disappear; mediating edges get their MWE endpoint
    replaced by the joined token (and, on the functor side, the MWE's
    category); external edges pass through.  All indices are re-mapped to
    the collapsed tokenization.  Edge multiplicity is preserved, so
    len(result) == len(deps) - number of internal edges.  An edge whose
    indices, words and category stay as they were is the input object
    itself, so the two graphs share it.
    """
    unit_occ = {i: occ for occ in outcome.kept for i in occ.indices}
    out = []
    for dep in deps:
        if dep.i not in outcome.index_map or dep.j not in outcome.index_map:
            raise DataInconsistencyError(
                "dependency %d->%d outside the collapsed sentence"
                % (dep.i, dep.j))
        occ_i = unit_occ.get(dep.i)
        occ_j = unit_occ.get(dep.j)
        if occ_i is not None and occ_i is occ_j:
            continue
        word_i = occ_i.joined if occ_i is not None else dep.word_i
        word_j = dep.word_j
        cat_j = dep.cat_j
        if occ_j is not None:
            word_j = occ_j.joined
            cat_j = outcome.categories.get(occ_j, cat_j)
        out.append(dep.moved(outcome.index_map[dep.i],
                             outcome.index_map[dep.j], cat_j, word_i, word_j))
    return out


def collapse_tokens(tokens, occurrences):
    """Collapse occurrences in a raw token sequence.

    Returns the collapsed tokens.  Pass the kept occurrences of a tree
    collapse for gold-sibling test data, or every recognized occurrence
    for fully-collapsed test data.
    """
    index_map = build_index_map(len(tokens), occurrences)
    out = {}
    for i, token in enumerate(tokens):
        out.setdefault(index_map[i], token)
    for occ in occurrences:
        out[index_map[occ.start]] = occ.joined
    return list(out.values())


def collapse_all_dependencies(deps, occurrences):
    """Dependency collapsing that treats every occurrence as collapsed,
    whether or not it was a tree constituent.

    No collapsed tree exists here, so cat_j of a swallowed functor is kept
    from the original dependency.
    """
    n = 1 + max([-1] + [index for dep in deps for index in (dep.i, dep.j)]
                + [occ.indices[-1] for occ in occurrences])
    return collapse_dependencies(deps, CollapseOutcome(
        None, occurrences, [], build_index_map(n, occurrences), {}))


def detect_cycles(deps):
    """Number of unordered node pairs connected by edges in both directions."""
    edges = {(dep.i, dep.j) for dep in deps}
    return sum(1 for (a, b) in edges if a < b and (b, a) in edges)
