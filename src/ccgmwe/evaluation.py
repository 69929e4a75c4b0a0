"""Dependency scoring, model combination and the randomized significance
test.

Scoring is micro-averaged over pooled per-sentence counts.  An unlabeled
match requires both endpoints to agree as (index, word) pairs with
direction preserved; labeled matching additionally compares (cat_j, arg_k).
Precision with zero attempted dependencies is reported as 0 with a flag so
that batch runs survive parse failures.

The significance test is a one-tailed stratified randomized shuffling test:
each iteration swaps each sentence's (correct, attempted, gold) triple
between the two systems with probability one half and recomputes the
aggregate F1 difference; the p-value is (hits + 1) / (iterations + 1).
When 2^n does not exceed the iteration budget every swap pattern is
counted instead, so small inputs get the exact randomization p-value
under the same +1 convention.  Pooled F1 is 2c / (a + g), so both
branches count the patterns by the shift in (correct, attempted + gold)
they cause, in plain Python.  The sampler draws numpy's own stream; it
imports numpy only when iterations times the sentences X and Y score
differently exceeds 2^17 draws, so that every other stage and subcommand,
and `run` on the shipped corpus (at most 60,000 draws), start without it.
Below that it draws the column of each such sentence down the column, and
the tests of one `run` share their drawn columns: all four read the same
stream, so a sentence that several of them test is drawn once.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress

from .categories import arity, render
from .records import Record
from .recognition import SCHEME_UNITS
from .treebank import Dependency, check_ids, check_iterations, check_seed

INTERNAL = "internal"
MEDIATING = "mediating"
EXTERNAL = "external"


def f1(precision, recall):
    """The harmonic mean 2PR / (P + R), 0 when P + R is 0."""
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


class EvalReport(Record):
    __slots__ = ("precision", "recall", "f1", "correct", "attempted", "gold",
                 "undefined_precision", "per_sentence")


def _match_keys(deps, labeled):
    """The multiset of the match keys of `deps`."""
    if labeled:
        return Counter([(d.i, d.word_i, d.j, d.word_j, render(d.cat_j),
                         d.arg_k) for d in deps])
    return Counter([(d.i, d.word_i, d.j, d.word_j) for d in deps])


def gold_keys(gold, labeled=False):
    """{sentence id: multiset of match keys} of gold dependencies, the form
    in which score takes its gold side: a gold corpus scored against many
    systems is keyed once."""
    return {sid: _match_keys(deps, labeled) for sid, deps in gold.items()}


def score(system, gold, labeled=False):
    """Score system dependencies, {sentence id: [Dependency]}, against
    gold_keys(gold dependencies, labeled), matching multisets of keys.

    Raises ValueError listing the ids when the two sides cover different
    sentences.
    """
    check_ids(system, gold, "system ids differ from gold's")
    per_sentence = {}
    for sid in sorted(system):
        keys = gold[sid]
        correct = sum(min(count, keys[key]) for key, count
                      in _match_keys(system[sid], labeled).items()
                      if key in keys)
        per_sentence[sid] = correct, len(system[sid]), sum(keys.values())
    correct = sum(c for c, _, _ in per_sentence.values())
    attempted = sum(a for _, a, _ in per_sentence.values())
    gold_total = sum(g for _, _, g in per_sentence.values())
    undefined = attempted == 0
    precision = correct / attempted if attempted else 0.0
    recall = correct / gold_total if gold_total else 0.0
    return EvalReport(precision, recall, f1(precision, recall),
                      correct, attempted, gold_total, undefined, per_sentence)


# ----------------------------------------------------------------------
# Edge taxonomy
# ----------------------------------------------------------------------

def membership_from_occurrences(occurrences):
    """Map leaf index -> MWE group key, for original-tokenization edges."""
    return {i: group for group, occ in enumerate(occurrences)
            for i in occ.indices}


def classify_edge(dep, membership):
    """internal when both endpoints sit in the same MWE, mediating when at
    least one endpoint is an MWE unit, external otherwise."""
    group_i = membership.get(dep.i)
    group_j = membership.get(dep.j)
    if group_i is not None and group_i == group_j:
        return INTERNAL
    if group_i is not None or group_j is not None:
        return MEDIATING
    return EXTERNAL


# ----------------------------------------------------------------------
# Model combination (decollapsing out_B with help from out_A)
# ----------------------------------------------------------------------

def combine_models(out_a, out_b, occurrences, schemes):
    """Combine baseline dependencies (original tokens) with collapsed-model
    dependencies (collapsed tokens) into original-tokenization output under
    each scheme of `schemes`; returns one edge list per scheme, in their
    order.

    External edges come from out_b, internal edges from out_a.  Mediating
    edges come from out_a under medFromA; under rightmostMed/leftmostMed
    they come from out_b with each MWE endpoint expanded to its rightmost
    or leftmost unit.  cat_j of an expanded functor endpoint is restored
    from out_a when that leaf heads some out_a dependency, else retained.

    The occurrences are in the form recognition.recognize and
    rebind_tokens return them: sorted by first unit, pairwise disjoint and
    inside the sentence; they are not checked again here.  out_b indices
    are decollapsed by inverting collapse.build_index_map over them; an
    index past the last occurrence maps back with the total shift of all
    of them.

    All the schemes are made in one pass: out_a's edges are classified and
    each out_b edge decollapsed once.  An out_b edge without an MWE
    endpoint is one object in every scheme's combination, and is the out_b
    object itself where neither index moves.
    """
    # imported here, so that eval and sigtest do not load collapse
    from .collapse import build_index_map
    for scheme in schemes:
        if scheme not in SCHEME_UNITS:
            raise ValueError("unknown combination scheme %r" % scheme)
    membership_a = membership_from_occurrences(occurrences)
    n = 1 + max([-1] + [occ.indices[-1] for occ in occurrences])
    index_map = build_index_map(n, occurrences)
    original = {new: old for old, new in index_map.items()}
    shift = n - len(original)
    positions = {index_map[occ.start]: occ for occ in occurrences}

    def endpoint(index, word, unit):
        """The original-tokenization (index, word) of an out_b endpoint."""
        occ = positions.get(index)
        if occ is None:
            return original.get(index, index + shift), word
        return occ.indices[unit], occ.tokens[unit]

    a_cats = {dep.j: dep.cat_j for dep in reversed(out_a)}  # first one wins

    def expand(dep, unit):
        """An out_b edge with an MWE endpoint, decollapsed to `unit`."""
        i, word_i = endpoint(dep.i, dep.word_i, unit)
        j, word_j = endpoint(dep.j, dep.word_j, unit)
        cat_j = dep.cat_j
        # an expanded functor takes out_a's category if the slot fits it
        if dep.j in positions and dep.arg_k <= arity(a_cats.get(j, cat_j)):
            cat_j = a_cats.get(j, cat_j)
        return dep.moved(i, j, cat_j, word_i, word_j)

    classes = [classify_edge(dep, membership_a) for dep in out_a]
    external, mediating = [], []        # out_b edges without, with an MWE
    for dep in out_b:
        if dep.i in positions or dep.j in positions:
            mediating.append(dep)
        else:
            external.append(dep.moved(
                original.get(dep.i, dep.i + shift),
                original.get(dep.j, dep.j + shift),
                dep.cat_j, dep.word_i, dep.word_j))
    out = []
    for scheme in schemes:
        unit = SCHEME_UNITS[scheme]
        # medFromA takes the mediating edges from out_a, the others expand
        # out_b's
        from_a = (INTERNAL,) if unit is not None else (INTERNAL, MEDIATING)
        combined = [dep for dep, edge_class in zip(out_a, classes)
                    if edge_class in from_a]
        combined += external
        if unit is not None:
            combined += [expand(dep, unit) for dep in mediating]
        combined.sort(key=Dependency.key)
        out.append(combined)
    return out


# ----------------------------------------------------------------------
# One-tailed randomized shuffling significance test
# ----------------------------------------------------------------------

class SigTestResult(Record):
    __slots__ = ("p_value", "observed_diff", "iterations", "exhaustive")


# swap decisions drawn per block of rows by sig_test's numpy sampler
_SWAP_BLOCK = 1 << 14
# sig_test draws up to this many swap decisions (iterations times the
# sentences X and Y score differently) in Python, 0.05-0.07 s on a 2-CPU
# host; above it importing numpy costs less than the draws
_PURE_DRAWS = 1 << 17

_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pooled_f1(correct, attempted_plus_gold):
    # F1 = 2PR/(P+R) collapses to 2c/(a+g) on pooled counts
    if attempted_plus_gold == 0:
        return 0.0
    return 2.0 * correct / attempted_plus_gold


def _pcg64(seed):
    """(state, increment) of the PCG64 generator of
    numpy.random.default_rng(seed) before its first draw: numpy's
    SeedSequence(seed).generate_state(4, uint64) fed to PCG64's srandom."""
    entropy = [seed >> shift & _MASK32
               for shift in range(0, max(1, seed.bit_length()), 32)]
    mult = 0x43B0D7E5

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * 0x931E8875 & _MASK32
        value = value * mult & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = 0xCA01F9DD * x - 0x4973F715 * y & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in (entropy + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, words = 0x8B51F9DD, []
    for value in pool * 2:
        value ^= mult
        mult = mult * 0x58F38DED & _MASK32
        value = value * mult & _MASK32
        words.append(value ^ value >> 16)
    # little-endian uint64 pairs: (high, low) of the seed, then of the stream
    seed_hi, seed_lo, inc_hi, inc_lo = (
        words[k] | words[k + 1] << 32 for k in range(0, 8, 2))
    increment = (inc_hi << 64 | inc_lo) << 1 & _MASK128 | 1
    state = (increment + (seed_hi << 64 | seed_lo)) * _PCG_MULT + increment
    return state & _MASK128, increment


def _jump(steps, increment):
    """(mult, plus) with which state * mult + plus moves a PCG64 state
    `steps` draws ahead."""
    mult, plus = 1, 0
    step_mult, step_plus = _PCG_MULT, increment
    while steps:
        if steps & 1:
            mult = mult * step_mult & _MASK128
            plus = plus * step_mult + step_plus & _MASK128
        step_plus = (step_mult + 1) * step_plus & _MASK128
        step_mult = step_mult * step_mult & _MASK128
        steps >>= 1
    return mult, plus


def _swap_columns(drawn, columns, n, iterations, seed):
    """The swap bits of each of `columns`, in their order: column c's
    bytearray holds, row by row, whether cell (r, c) of
    numpy.random.default_rng(seed).random((iterations, n)) is below 0.5.
    `drawn` maps (seed, n, iterations, column) to the columns drawn
    before; the others are drawn down the column and added to it."""
    missing = [col for col in columns
               if (seed, n, iterations, col) not in drawn]
    if missing:
        state, increment = _pcg64(seed)
        row_mult, row_plus = _jump(n, increment)
        for col in missing:
            # cell (r, c) is draw r * n + c + 1 after seeding
            mult, plus = _jump(col + 1, increment)
            cell = state * mult + plus & _MASK128
            bits = bytearray(iterations)
            for row in range(iterations):
                # random() < 0.5 is a 0 in the top bit of the XSL-RR output
                bits[row] = not ((cell >> 64 ^ cell)
                                 >> ((cell >> 122) - 1 & 63) & 1)
                cell = cell * row_mult + row_plus & _MASK128
            drawn[seed, n, iterations, col] = bits
    return [drawn[seed, n, iterations, col] for col in columns]


def _sampled_shifts(deltas, n, iterations, seed, drawn):
    """{(correct, attempted + gold) shift onto X: rows} over the rows of
    numpy.random.default_rng(seed).random((iterations, n)) < 0.5, row r
    swapping the sentences its true cells name.  `deltas` maps the column
    of each sentence whose swap moves the totals to the shift it adds;
    only those columns are drawn, or taken from `drawn`."""
    columns = sorted(deltas)
    patterns = Counter(zip(*_swap_columns(drawn, columns, n, iterations,
                                          seed)))
    d_correct = [deltas[col][0] for col in columns]
    d_denom = [deltas[col][1] for col in columns]
    shifts = Counter()
    for pattern, rows in (patterns or {(): iterations}).items():
        shifts[sum(compress(d_correct, pattern)),
               sum(compress(d_denom, pattern))] += rows
    return shifts


def sig_test(counts_x, counts_y, iterations=10000, seed=0, *, drawn=None):
    """One-tailed stratified shuffling test of X against Y.

    counts_x/counts_y map sentence id -> (correct, attempted, gold).
    Returns the probability, under random per-sentence swaps, of an F1
    difference at least as large as the observed F1(X) - F1(Y).  Exact
    enumeration replaces sampling whenever 2^n <= iterations, making the
    result deterministic and seed-free on small inputs; otherwise the
    sampler is deterministic for a fixed seed.

    The exact branch needs neither numpy nor 2^n rows: sentence by sentence
    it counts the swap patterns per (correct, attempted + gold) shift they
    move onto X, in n steps over the distinct shifts.  The sampler swaps
    sentence k of row r when cell (r, k) of
    numpy.random.default_rng(seed).random((iterations, n)) is below 0.5.
    Only the m sentences that X and Y score differently move the totals;
    while iterations * m is at most 2^17 it draws their columns of that
    stream in Python, one column at a time, counts the rows per swap
    pattern and scores each distinct shift as the exact branch does.
    `drawn`, a dict keyed by (seed, n, iterations, column), keeps the
    columns drawn: tests of the same stream that share it draw each column
    once.  `run` passes one per run; without it nothing is kept.  Above the
    limit it imports numpy and draws the whole stream, which gives the
    same result, and leaves `drawn` alone.
    """
    check_iterations(iterations)
    check_seed(seed)
    check_ids(counts_y, counts_x, "Y ids differ from X's")
    sids = sorted(counts_x)
    if not sids:
        raise ValueError("no sentences to test")
    x = [(c, a + g) for c, a, g in map(counts_x.get, sids)]
    y = [(c, a + g) for c, a, g in map(counts_y.get, sids)]
    correct_x, denom_x = map(sum, zip(*x))
    correct_y, denom_y = map(sum, zip(*y))
    observed = _pooled_f1(correct_x, denom_x) - _pooled_f1(correct_y, denom_y)
    n = len(sids)

    def hits(shifts):
        """The patterns of {shift onto X: patterns} that reach `observed`."""
        return sum(patterns for (c, d), patterns in shifts.items()
                   if _pooled_f1(correct_x + c, denom_x + d)
                   - _pooled_f1(correct_y - c, denom_y - d) >= observed)

    if 2 ** n <= iterations:
        shifts = Counter({(0, 0): 1})       # swap adds y - x to the x side
        for (cx, dx), (cy, dy) in zip(x, y):
            grown = shifts.copy()
            for (c, d), patterns in shifts.items():
                grown[c + cy - cx, d + dy - dx] += patterns
            shifts = grown
        return SigTestResult((hits(shifts) + 1) / (2 ** n + 1), observed,
                             2 ** n, True)
    deltas = {k: (cy - cx, dy - dx)
              for k, ((cx, dx), (cy, dy)) in enumerate(zip(x, y))
              if (cx, dx) != (cy, dy)}
    if iterations * len(deltas) <= _PURE_DRAWS:
        shifts = _sampled_shifts(deltas, n, iterations, seed,
                                 {} if drawn is None else drawn)
        return SigTestResult((hits(shifts) + 1) / (iterations + 1), observed,
                             iterations, False)
    import numpy as np

    x = np.array(x, dtype=np.int64)
    y = np.array(y, dtype=np.int64)
    delta = y - x
    # the swap patterns are drawn a block of rows at a time: the same
    # stream as one (iterations, n) draw, in a fraction of its memory
    rng = np.random.default_rng(seed)
    rows = max(1, _SWAP_BLOCK // n)
    shift = np.concatenate([
        (rng.random((min(rows, iterations - first), n)) < 0.5)
        .astype(np.int64) @ delta
        for first in range(0, iterations, rows)])
    x_tot = x.sum(axis=0)[None, :] + shift
    y_tot = y.sum(axis=0)[None, :] - shift
    f1_x = np.zeros(iterations)
    f1_y = np.zeros(iterations)
    np.divide(2.0 * x_tot[:, 0], x_tot[:, 1], out=f1_x, where=x_tot[:, 1] > 0)
    np.divide(2.0 * y_tot[:, 0], y_tot[:, 1], out=f1_y, where=y_tot[:, 1] > 0)
    hits = int(np.count_nonzero(f1_x - f1_y >= observed))
    return SigTestResult((hits + 1) / (iterations + 1), observed,
                         iterations, False)
