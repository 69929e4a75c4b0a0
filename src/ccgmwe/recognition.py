"""MWE recognition: detectors, filters and conflict resolvers.

A recognizer is a three-stage cascade, each stage dispatching by name
through one table.  Detectors enumerate candidate occurrences of lexicon
entries in a token sequence (case-insensitively, contiguous matches only);
DETECTORS maps each to the lexicon kind it admits.  Filters prune
candidates; _FILTERS maps each to its keep-predicate, and _keep also reads
"constrain-length(n)".  The continuity filter is always part of the
cascade.  Resolvers turn the surviving candidate set into a conflict-free
sequence in which no token belongs to two MWEs; RESOLVERS maps each to the
key it orders candidates by.  An unknown name fails the same lookup
wherever it is given.

SCHEME_UNITS, the table of evaluation.combine_models, lives here with the
other tables the command line offers as choices, so that parsing the
command line loads no other stage module.
"""

from __future__ import annotations

from .records import FrozenRecord, Record

# detector -> the lexicon kind it admits (None: every kind)
DETECTORS = {"exhaustive": None, "proper-noun": "proper-noun",
             "stop-word": "stop-word"}
# resolver -> the order in which it takes candidates
RESOLVERS = {"longest": lambda c: (-len(c.indices), c.start, c.joined),
             "leftmost": lambda c: (c.start, -len(c.indices), c.joined)}
# combination scheme -> the unit an out_b MWE endpoint expands to (None:
# out_b edges with an MWE endpoint are dropped and out_a's mediating edges
# kept); evaluation.combine_models dispatches on it
SCHEME_UNITS = {"medFromA": None, "rightmostMed": -1, "leftmostMed": 0}
SCHEMES = tuple(SCHEME_UNITS)


def _lookup(table, what, name):
    """table[name]; ValueError("unknown <what> 'name'") when it is absent."""
    try:
        return table[name]
    except KeyError:
        raise ValueError("unknown %s %r" % (what, name)) from None


class MweOccurrence(FrozenRecord):
    """A detected MWE: the leaf indices and tokens of its units, plus the
    '+'-joined lowercased form it collapses to."""

    __slots__ = ("indices", "tokens", "kind", "joined")

    def __init__(self, indices, tokens, kind):
        if len(indices) < 2:
            raise ValueError("an MWE occurrence needs >= 2 units")
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError("unit indices must be strictly increasing")
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "tokens", tokens)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "joined",
                           "+".join(t.lower() for t in tokens))

    @property
    def start(self):
        return self.indices[0]

    def is_continuous(self):
        return self.indices[-1] - self.indices[0] + 1 == len(self.indices)


class OverlapError(ValueError):
    """The occurrences of one sentence must be pairwise index-disjoint."""


def _more_frequent_as_mwe(occurrence, lexicon):
    """Keep an occurrence iff the MWE count beats every unit's standalone count."""
    entry = lexicon.entries.get(tuple(t.lower() for t in occurrence.tokens))
    return entry is not None and all(entry.mwe_count > count
                                     for count in entry.unit_counts)


# filter -> keep-predicate (candidate, lexicon) -> bool
_FILTERS = {"continuous": lambda c, lexicon: c.is_continuous(),
            "more-frequent-as-mwe": _more_frequent_as_mwe}


def _keep(name):
    """The keep-predicate of filter `name`, constrain-length(n) included."""
    if name.startswith("constrain-length(") and name.endswith(")"):
        try:
            limit = int(name[len("constrain-length("):-1])
        except ValueError:
            raise ValueError("bad filter %r" % name) from None
        if limit < 2:
            raise ValueError("constrain-length limit must be >= 2")
        return lambda c, lexicon: len(c.indices) == limit
    return _lookup(_FILTERS, "filter", name)


class RecognizerConfig(Record):
    """A detector/filters/resolver combination.

    Filters are given as strings: "continuous", "more-frequent-as-mwe" or
    "constrain-length(n)".  The continuity filter is inserted first when
    missing, since every cascade works with it.
    """

    __slots__ = ("detector", "filters", "resolver")

    def __init__(self, detector="exhaustive", filters=("continuous",),
                 resolver="longest"):
        _lookup(DETECTORS, "detector", detector)
        _lookup(RESOLVERS, "resolver", resolver)
        filters = tuple(filters)
        for name in filters:
            _keep(name)
        if "continuous" not in filters:
            filters = ("continuous",) + filters
        super().__init__(detector, filters, resolver)


# The five recognizer presets evaluated in the experiments.
PRESETS = {
    "rec1": RecognizerConfig("exhaustive", ("continuous", "more-frequent-as-mwe"), "longest"),
    "rec2": RecognizerConfig("exhaustive", ("continuous", "more-frequent-as-mwe"), "leftmost"),
    "rec3": RecognizerConfig("proper-noun", ("continuous",), "longest"),
    "rec4": RecognizerConfig("exhaustive", ("continuous", "constrain-length(2)"), "leftmost"),
    "rec5": RecognizerConfig("stop-word", ("continuous",), "longest"),
}


def detect(lexicon, tokens, detector="exhaustive"):
    """Enumerate every contiguous match of a lexicon entry in `tokens`.

    All matches are returned, overlapping ones included; the proper-noun
    and stop-word detectors restrict the lexicon to entries of that kind.
    Matching is case-insensitive.
    """
    wanted = _lookup(DETECTORS, "detector", detector)
    lowered = [t.lower() for t in tokens]
    found = []
    for start, low in enumerate(lowered):
        for entry in lexicon.by_first_unit.get(low, ()):
            if wanted is not None and entry.kind != wanted:
                continue
            end = start + len(entry.units)
            if end > len(tokens):
                continue
            if tuple(lowered[start:end]) == entry.units:
                found.append(MweOccurrence(tuple(range(start, end)),
                                           tuple(tokens[start:end]),
                                           entry.kind))
    return found


def apply_filters(candidates, filters, lexicon):
    """Prune candidates through the ordered filter cascade."""
    out = list(candidates)
    for name in filters:
        keep = _keep(name)
        out = [c for c in out if keep(c, lexicon)]
    return out


def resolve(candidates, resolver="longest"):
    """Resolve conflicts, returning a pairwise index-disjoint sequence.

    longest: repeatedly take the longest remaining candidate (ties broken
    by leftmost start, then lexicographic joined form) and drop whatever
    overlaps it.  leftmost: scan by start index, taking the candidate with
    the smallest start (ties broken by length, then joined form).
    """
    order = sorted(candidates, key=_lookup(RESOLVERS, "resolver", resolver))
    chosen = []
    taken = set()
    for cand in order:
        if taken.isdisjoint(cand.indices):
            chosen.append(cand)
            taken.update(cand.indices)
    chosen.sort(key=lambda c: c.start)
    return chosen


def recognize(lexicon, tokens, config):
    """Full cascade: detect, filter, resolve."""
    candidates = detect(lexicon, tokens, config.detector)
    candidates = apply_filters(candidates, config.filters, lexicon)
    return resolve(candidates, config.resolver)


def rebind_tokens(occurrences, tokens):
    """Check occurrences loaded from a file against their sentence and
    re-attach its verbatim tokens (the file stores only the lowercased
    joined form, which must match); returns them sorted by first unit, in
    the form recognize returns them.  Two that share an index raise
    OverlapError; one past the sentence's end, or whose joined form is not
    its units', raises ValueError."""
    out = []
    seen = set()
    for occ in sorted(occurrences, key=lambda o: o.start):
        overlap = seen.intersection(occ.indices)
        if overlap:
            raise OverlapError("occurrences overlap at indices %s"
                               % sorted(overlap))
        seen.update(occ.indices)
        if occ.indices[-1] >= len(tokens):
            raise ValueError("occurrence %r outside sentence of %d tokens"
                             % (occ.joined, len(tokens)))
        out.append(MweOccurrence(occ.indices,
                                 tuple(tokens[i] for i in occ.indices),
                                 occ.kind))
        if out[-1].joined != occ.joined:
            raise ValueError("occurrence %r at %s does not match the "
                             "sentence's units %r" % (occ.joined, ",".join(
                                 map(str, occ.indices)), out[-1].joined))
    return out
