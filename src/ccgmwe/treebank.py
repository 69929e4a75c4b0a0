"""Data model and serialization for derivation trees, dependencies, token
files and MWE lexicons.

File formats (all UTF-8); sentence ids contain no whitespace and are
unique within every treebank, dependency, ids and counts file:

* Treebank: per sentence a line ``ID <id>`` followed by one line with a
  parenthesized tree, ``(CAT child child)`` for internal nodes and
  ``(CAT token)`` for leaves, nested at most MAX_TREE_DEPTH (200) levels.
  Category strings follow categories.py and contain no whitespace; tokens
  contain neither whitespace nor parentheses.
* Dependencies: per sentence a line ``ID <id>`` followed by one line per
  edge, tab-separated ``i j cat_j arg_k word_i word_j``.  Indices are
  1-based in files and 0-based in memory.
* Token file: one sentence per line, space-separated tokens without
  parentheses; collapsed MWE units are joined by '+'.  Ids file (``parse
  --ids``): one sentence id per line.
* Lexicon: tab-separated ``unit1 unit2 ...  kind  mwe-count  c1;c2;...``.
* Occurrences: tab-separated ``sentence-id  i1,i2,...  joined  kind``, as
  written by ``recognize`` (whose ``--preset`` excludes ``--detector``,
  ``--filters`` and ``--resolver``); unit indices are 0-based and strictly
  increasing, joined must be the units' lowercased tokens joined by '+',
  and kind is one of LEXICON_KINDS.
* Model (parser.py): tab-separated ``table  condition  outcome  value``;
  the meta keys are ``smoothing`` and ``rare_threshold``, and
  ``rare_threshold`` and the tokpos counts are at least 1.
* Per-sentence counts: tab-separated ``sentence-id  correct  attempted
  gold``, one line per sentence sorted by id, as written by ``eval
  --per-sentence`` and ``run`` and read by ``sigtest``.
* Config (pipeline.py): ``key = value`` lines.  The run settings are
  checked here, wherever they are given: ``smoothing`` (also ``train``'s
  and the model's) by check_smoothing, ``iterations`` and ``seed`` (also
  ``sigtest``'s) by check_iterations and check_seed.

Blank lines are skipped everywhere.  Every reader goes through Lines, so a
malformed input line, a repeated id among them, raises a typed error worded
``<file> line N: <reason>``, which the CLI prints before exiting with status
1.  Corpora that must hold the same sentences are compared by check_ids, as
in ``system ids differ from gold's: missing [...], unknown [...]`` (eval).
"""

from __future__ import annotations

import math
import sys

from .categories import arity, parse_category, render
from .records import FrozenRecord, Record

LEXICON_KINDS = ("proper-noun", "stop-word", "general")
# deepest tree parse_tree reads: every recursive tree walk fits the stack
MAX_TREE_DEPTH = 200


class TreebankFormatError(ValueError):
    pass


class LexiconError(ValueError):
    pass


class PipelineError(RuntimeError):
    """A stage failure, worded ``[<stage>] <message>``, followed by
    `` (sentence <sid>)`` when it names the offending sentence.

    Raised by the stages of pipeline.py; it lives here, in the module every
    subcommand loads, so that the CLI catches it without loading them.
    """

    def __init__(self, stage, message, sid=None):
        detail = "[%s] %s" % (stage, message)
        if sid is not None:
            detail += " (sentence %s)" % sid
        super().__init__(detail)


def check_smoothing(smoothing):
    """`smoothing`, if it is a finite number >= 0; else ValueError."""
    if not (math.isfinite(smoothing) and smoothing >= 0):
        raise ValueError("smoothing must be a finite number >= 0, got %r"
                         % smoothing)
    return smoothing


def check_iterations(iterations):
    """`iterations`, if it is at least 1; else ValueError."""
    if iterations < 1:
        raise ValueError("iterations must be at least 1, got %d" % iterations)
    return iterations


def check_seed(seed):
    """`seed`, if it is at least 0; else ValueError."""
    if seed < 0:
        raise ValueError("seed must be at least 0, got %d" % seed)
    return seed


class Lines:
    """The non-blank lines of an input file, newline stripped::

        with Lines(path) as lines:
            for line in lines:
                ...

    A ValueError raised inside the block is re-raised as
    ``error("<path> line N: <reason>")``, N being the last line read.
    """

    def __init__(self, path, error=TreebankFormatError):
        self.path = path
        self.error = error
        self.lineno = 0

    def __enter__(self):
        self._handle = open(self.path, "rb")
        return self

    def __iter__(self):
        # decoding line by line places a UnicodeDecodeError on its line
        for self.lineno, raw in enumerate(self._handle, 1):
            line = raw.decode("utf-8").rstrip("\r\n")
            if line.strip():
                yield line

    def __exit__(self, kind, exc, traceback):
        self._handle.close()
        if isinstance(exc, ValueError):
            raise self.error("%s line %d: %s"
                             % (self.path, self.lineno, exc)) from exc


class DerivationTree(Record):
    """A derivation node: binary, unary, or a leaf carrying a token.

    Internal binary nodes need not be derivable by a combinatory rule.
    Subtrees are shared between trees (a collapsed tree shares every
    subtree it did not change with its input), so no tree is ever mutated.
    """

    __slots__ = ("category", "children", "token")

    def __init__(self, category, children=(), token=None):
        self.category = category
        self.children = children
        self.token = token

    def is_leaf(self):
        return self.token is not None


class Dependency(Record):
    """The 6-tuple <i, j, cat_j, arg_k, word_i, word_j>: word_i at leaf i
    fills the k-th argument slot of the functor word_j at leaf j."""

    __slots__ = ("i", "j", "cat_j", "arg_k", "word_i", "word_j")

    def __init__(self, i, j, cat_j, arg_k, word_i, word_j):
        if i < 0 or j < 0:
            raise ValueError("dependency endpoints must be non-negative, "
                             "got i=%d, j=%d" % (i, j))
        if i == j:
            raise ValueError("dependency endpoints must differ (i=j=%d)" % i)
        if arg_k < 1:
            raise ValueError("arg_k must be >= 1, got %d" % arg_k)
        self.i = i
        self.j = j
        self.cat_j = cat_j
        self.arg_k = arg_k
        self.word_i = word_i
        self.word_j = word_j

    def key(self):
        return (self.i, self.j, render(self.cat_j), self.arg_k,
                self.word_i, self.word_j)

    def moved(self, i, j, cat_j, word_i, word_j):
        """This edge with the given endpoints, functor category and words:
        the edge itself when they are its own, so that an edge a stage
        leaves in place stays one object in every corpus that holds it."""
        if (cat_j is self.cat_j and i == self.i and j == self.j
                and word_i == self.word_i and word_j == self.word_j):
            return self
        return Dependency(i, j, cat_j, self.arg_k, word_i, word_j)


class SentenceRecord(Record):
    __slots__ = ("sid", "tree", "tokens")

    def __init__(self, sid, tree, tokens=None):
        self.sid = sid
        self.tree = tree
        self.tokens = [] if tokens is None else tokens


def check_ids(corpus, expected, what):
    """Raise ValueError("<what>: missing [...], unknown [...]") unless the
    sentence ids of `corpus` are exactly those of `expected`."""
    if set(corpus) != set(expected):
        raise ValueError("%s: missing %s, unknown %s"
                         % (what, sorted(set(expected) - set(corpus)),
                            sorted(set(corpus) - set(expected))))


def _new_id(sid, seen):
    """`sid`, if non-empty, without whitespace and unseen; else ValueError."""
    if not sid:
        raise ValueError("empty sentence id")
    if any(c.isspace() for c in sid):
        raise ValueError("sentence id %r contains whitespace" % sid)
    if sid in seen:
        raise ValueError("duplicate sentence id %s" % sid)
    return sid


def leaf_nodes(tree):
    """Leaf nodes of `tree` in left-to-right order."""
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node.is_leaf():
            out.append(node)
        else:
            stack.extend(reversed(node.children))
    return out


def leaves(tree):
    """The (index, token) sequence of the tree's leaves, left to right."""
    return [(index, node.token) for index, node in enumerate(leaf_nodes(tree))]


# ----------------------------------------------------------------------
# Tree serialization
# ----------------------------------------------------------------------

def parse_tree(text):
    """Parse one bracketed tree line nested at most MAX_TREE_DEPTH levels."""
    tree, pos = _parse_node(text, 0, 1)
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos != len(text):
        raise TreebankFormatError("trailing text after tree at column %d"
                                  % pos)
    return tree


def _parse_node(text, pos, depth):
    if pos >= len(text) or text[pos] != "(":
        raise TreebankFormatError("expected '(' at column %d" % pos)
    if depth > MAX_TREE_DEPTH:
        raise TreebankFormatError("tree nested deeper than %d levels at "
                                  "column %d" % (MAX_TREE_DEPTH, pos))
    pos += 1
    end = pos
    while end < len(text) and not text[end].isspace():
        end += 1
    cat_text = text[pos:end]
    if not cat_text:
        raise TreebankFormatError("missing category at column %d" % pos)
    try:
        category = parse_category(cat_text)
    except ValueError as exc:
        raise TreebankFormatError(str(exc)) from exc
    pos = end
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos < len(text) and text[pos] == "(":
        children = []
        while pos < len(text) and text[pos] == "(":
            child, pos = _parse_node(text, pos, depth + 1)
            children.append(child)
            while pos < len(text) and text[pos].isspace():
                pos += 1
        if pos >= len(text) or text[pos] != ")":
            raise TreebankFormatError("unbalanced bracket at column %d" % pos)
        if len(children) > 2:
            raise TreebankFormatError("node with %d children at column %d"
                                      % (len(children), pos))
        return DerivationTree(category, tuple(children)), pos + 1
    end = pos
    while end < len(text) and text[end] not in "() \t":
        end += 1
    token = sys.intern(text[pos:end])     # one object per distinct token
    if not token:
        raise TreebankFormatError("empty leaf token at column %d" % pos)
    pos = end
    while pos < len(text) and text[pos].isspace():
        pos += 1
    if pos >= len(text) or text[pos] != ")":
        raise TreebankFormatError("unbalanced bracket at column %d" % pos)
    return DerivationTree(category, (), token), pos + 1


def render_tree(tree):
    if tree.is_leaf():
        return "(%s %s)" % (render(tree.category), tree.token)
    return "(%s %s)" % (render(tree.category),
                        " ".join(render_tree(c) for c in tree.children))


def iter_treebank(path):
    """Yield a treebank's SentenceRecords one at a time; tokens come from
    the tree leaves.  A malformed line raises TreebankFormatError once
    every record before it has been yielded."""
    seen = set()
    sid = None
    with Lines(path) as lines:
        for line in lines:
            if line.startswith("ID "):
                if sid is not None:
                    raise ValueError("sentence %s has no tree" % sid)
                sid = _new_id(line[3:].strip(), seen)
                seen.add(sid)
            elif sid is None:
                raise ValueError("tree without an ID header")
            else:
                tree = parse_tree(line)
                yield SentenceRecord(sid, tree,
                                     [token for _, token in leaves(tree)])
                sid = None
        if sid is not None:
            raise ValueError("sentence %s has no tree" % sid)


def read_treebank(path):
    """The list of iter_treebank(path)'s records."""
    return list(iter_treebank(path))


def render_treebank(records):
    """The treebank file text of `records`: per record its ``ID`` line and
    its rendered tree."""
    return "".join(["ID %s\n%s\n" % (record.sid, render_tree(record.tree))
                    for record in records])


def write_text(path, pieces):
    """Write the strings of `pieces`, such as the text of each sentence that
    a command has rendered as it went, to `path` in order."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(pieces)


def write_treebank(path, records):
    """Write render_treebank(records) to `path`."""
    write_text(path, [render_treebank(records)])


# ----------------------------------------------------------------------
# Dependency files
# ----------------------------------------------------------------------

def read_dependencies(path):
    """Read a dependency file into {sentence id: [Dependency]}, in file
    order.  A malformed line or a repeated id raises TreebankFormatError
    naming the file and line."""
    out = {}
    current = None
    with Lines(path) as lines:
        for line in lines:
            if line.startswith("ID "):
                current = out[_new_id(line[3:].strip(), out)] = []
            elif current is None:
                raise ValueError("dependency without an ID header")
            else:
                current.append(_parse_dependency(line))
    return out


def _parse_dependency(line):
    fields = line.split("\t")
    if len(fields) != 6:
        raise ValueError("expected 6 tab-separated fields, got %d" % len(fields))
    i, j, arg_k = int(fields[0]), int(fields[1]), int(fields[3])
    if i < 1 or j < 1:
        raise ValueError("file indices are 1-based")
    cat_j = parse_category(fields[2])
    if arg_k > arity(cat_j):
        raise ValueError("arg_k %d exceeds arity of %s" % (arg_k, fields[2]))
    return Dependency(i - 1, j - 1, cat_j, arg_k, fields[4], fields[5])


def write_dependencies(path, corpus):
    """Write {sentence id: [Dependency]}; indices become 1-based."""
    with open(path, "w", encoding="utf-8") as handle:
        for sid, deps in corpus.items():
            handle.write("ID %s\n" % sid)
            for dep in deps:
                handle.write("%d\t%d\t%s\t%d\t%s\t%s\n"
                             % (dep.i + 1, dep.j + 1, render(dep.cat_j),
                                dep.arg_k, dep.word_i, dep.word_j))


# ----------------------------------------------------------------------
# Token files
# ----------------------------------------------------------------------

def read_tokens(path):
    """The token lists of a token file; no token contains a parenthesis."""
    sentences = []
    with Lines(path) as lines:
        for line in lines:
            tokens = line.split()
            if "(" in line or ")" in line:
                raise ValueError("token %r contains a parenthesis" % next(
                    token for token in tokens if "(" in token or ")" in token))
            sentences.append(tokens)
    return sentences


def read_ids(path):
    """The ids of an ids file in file order."""
    ids = {}
    with Lines(path) as lines:
        for line in lines:
            ids[_new_id(line.strip(), ids)] = None
    return list(ids)


def write_tokens(path, sentences):
    with open(path, "w", encoding="utf-8") as handle:
        for tokens in sentences:
            handle.write(" ".join(tokens) + "\n")


# ----------------------------------------------------------------------
# MWE lexicon
# ----------------------------------------------------------------------

class LexiconEntry(FrozenRecord):
    __slots__ = ("units", "kind", "mwe_count", "unit_counts")


class MweLexicon:
    """An index of known MWEs keyed by their lowercased unit sequence."""

    def __init__(self, entries=()):
        self.entries = {}
        self.by_first_unit = {}
        for entry in entries:
            self.add(entry)

    def add(self, entry):
        if len(entry.units) < 2:
            raise LexiconError("an MWE needs at least 2 units: %r" % (entry.units,))
        if entry.kind not in LEXICON_KINDS:
            raise LexiconError("unknown kind %r" % entry.kind)
        if entry.mwe_count < 0 or any(c < 0 for c in entry.unit_counts):
            raise LexiconError("negative count for %r" % (entry.units,))
        if len(entry.unit_counts) != len(entry.units):
            raise LexiconError("unit count list does not match %r" % (entry.units,))
        key = tuple(u.lower() for u in entry.units)
        if key in self.entries:
            raise LexiconError("duplicate entry %r" % (key,))
        entry = LexiconEntry(key, entry.kind, entry.mwe_count,
                             tuple(entry.unit_counts))
        self.entries[key] = entry
        self.by_first_unit.setdefault(key[0], []).append(entry)


def read_lexicon(path):
    lexicon = MweLexicon()
    with Lines(path, LexiconError) as lines:
        for line in lines:
            if line.startswith("#"):
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError("expected 4 tab-separated fields")
            lexicon.add(LexiconEntry(
                tuple(fields[0].split()), fields[1], int(fields[2]),
                tuple(int(c) for c in fields[3].split(";"))))
    return lexicon


# ----------------------------------------------------------------------
# Occurrence files (sentence id + unit indices of recognized MWEs)
# ----------------------------------------------------------------------

def read_occurrences(path):
    """Read an occurrence file into {sentence id: [MweOccurrence]}."""
    from .recognition import MweOccurrence

    out = {}
    with Lines(path) as lines:
        for line in lines:
            fields = line.split("\t")
            if len(fields) != 4:
                raise ValueError("expected 4 tab-separated fields")
            sid = _new_id(fields[0], ())    # ids repeat, once per MWE
            if fields[3] not in LEXICON_KINDS:
                raise ValueError("unknown kind %r" % fields[3])
            indices = tuple(int(x) for x in fields[1].split(","))
            if indices[0] < 0:
                raise ValueError("unit indices are 0-based, got %d"
                                 % indices[0])
            out.setdefault(sid, []).append(MweOccurrence(
                indices, tuple(fields[2].split("+")), fields[3]))
    return out


def render_occurrences(sid, occurrences):
    """The occurrence file text of one sentence's occurrences, one line
    per occurrence."""
    return "".join(["%s\t%s\t%s\t%s\n"
                    % (sid, ",".join(str(i) for i in occ.indices),
                       occ.joined, occ.kind) for occ in occurrences])


def write_occurrences(path, corpus):
    """Write {sentence id: [MweOccurrence]}, one line per occurrence."""
    write_text(path, (render_occurrences(sid, occs)
                      for sid, occs in corpus.items()))


# ----------------------------------------------------------------------
# Per-sentence counts (sentence id + correct, attempted, gold)
# ----------------------------------------------------------------------

def read_counts(path):
    """Read a counts file into {sentence id: (correct, attempted, gold)}."""
    counts = {}
    with Lines(path) as lines:
        for line in lines:
            fields = line.strip().split("\t")
            if len(fields) != 4:
                raise ValueError("expected id, correct, attempted, gold")
            sid = _new_id(fields[0], counts)
            correct, attempted, gold = counts[sid] = tuple(
                int(f) for f in fields[1:])
            if min(correct, attempted, gold) < 0:
                raise ValueError("counts must be non-negative")
            if correct > min(attempted, gold):
                raise ValueError("correct %d exceeds attempted %d or gold %d"
                                 % (correct, attempted, gold))
    return counts


def write_counts(path, counts):
    """Write {sentence id: (correct, attempted, gold)} sorted by id."""
    with open(path, "w", encoding="utf-8") as handle:
        for sid in sorted(counts):
            handle.write("%s\t%d\t%d\t%d\n" % ((sid,) + counts[sid]))
