"""CCG category algebra.

A category is either atomic (``NP``, ``S``, possibly with a feature tag as
in ``S[dcl]``) or a functor built from a result, a slash direction and an
argument, as in ``(S\\NP)/NP``.  Slashes associate to the left, so
``S\\NP/NP`` denotes ``(S\\NP)/NP``; rendering always parenthesizes nested
functors, which is the canonical form used in all file formats.

Categories are immutable values: they can be shared freely between threads
and used as dictionary keys.  Equal values are one object: the constructor
interns every category it builds, so equality and hashing are the
identity ones and never walk the tree.
"""

from __future__ import annotations

import re
from functools import lru_cache

FORWARD = "/"
BACKWARD = "\\"

_ATOM_RE = re.compile(r"[^\s()/\\\[\]]+")


class CategoryParseError(ValueError):
    """Raised for a malformed category string; carries the offending offset."""

    def __init__(self, message, text, offset):
        super().__init__("%s in %r at offset %d" % (message, text, offset))
        self.text = text
        self.offset = offset


class Category:
    """An atomic or functor CCG category.

    Atoms set ``atom`` (and optionally ``feature``); functors set
    ``result``, ``direction`` and ``argument``.  Feature tags are preserved
    and compared exactly, with no unification.
    """

    __slots__ = ("atom", "feature", "result", "direction", "argument")
    _interned = {}              # field tuple -> the one Category with it

    def __new__(cls, atom=None, feature=None, result=None, direction=None,
                argument=None):
        key = (atom, feature, result, direction, argument)
        cat = cls._interned.get(key)
        if cat is None:
            cat = object.__new__(cls)
            for name, value in zip(cls.__slots__, key):
                object.__setattr__(cat, name, value)
            # a racing thread may have stored its twin first: keep that one
            cat = cls._interned.setdefault(key, cat)
        return cat

    def __setattr__(self, name, value):
        raise AttributeError("cannot set %r: Category is immutable" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete %r: Category is immutable" % name)

    def __reduce__(self):
        # rebuild by parsing the canonical form, so the unpickled category
        # is the interned one
        return (parse_category, (render(self),))

    def is_atom(self):
        return self.atom is not None

    def is_functor(self):
        return self.result is not None

    def __str__(self):
        return render(self)

    def __repr__(self):
        return "Category(%r)" % render(self)


@lru_cache(maxsize=None)
def parse_category(text):
    """Parse a category string into a Category tree.

    Slashes are left-associative on the spine; parentheses override.
    Raises CategoryParseError naming the offset of the first problem.
    """
    if not text or text.isspace():
        raise CategoryParseError("empty category", text, 0)
    cat, pos = _parse_spine(text, 0)
    if pos != len(text):
        raise CategoryParseError("trailing characters", text, pos)
    return cat


def _parse_spine(text, pos):
    cat, pos = _parse_operand(text, pos)
    while pos < len(text) and text[pos] in (FORWARD, BACKWARD):
        direction = text[pos]
        arg, pos = _parse_operand(text, pos + 1)
        cat = Category(None, None, cat, direction, arg)
    return cat, pos


def _parse_operand(text, pos):
    if pos >= len(text):
        raise CategoryParseError("missing operand", text, pos)
    if text[pos] == "(":
        cat, pos = _parse_spine(text, pos + 1)
        if pos >= len(text) or text[pos] != ")":
            raise CategoryParseError("unbalanced parenthesis", text, pos)
        return cat, pos + 1
    match = _ATOM_RE.match(text, pos)
    if match is None:
        raise CategoryParseError("expected an atom", text, pos)
    name = match.group()
    pos = match.end()
    feature = None
    if pos < len(text) and text[pos] == "[":
        end = text.find("]", pos)
        if end < 0:
            raise CategoryParseError("unterminated feature tag", text, pos)
        feature = text[pos + 1:end]
        if not feature:
            raise CategoryParseError("empty feature tag", text, pos)
        pos = end + 1
    return Category(name, feature), pos


@lru_cache(maxsize=None)
def render(cat):
    """Canonical string form; nested functors are fully parenthesized."""
    if cat.is_atom():
        if cat.feature is not None:
            return "%s[%s]" % (cat.atom, cat.feature)
        return cat.atom
    return "%s%s%s" % (_wrap(cat.result), cat.direction, _wrap(cat.argument))


def _wrap(cat):
    text = render(cat)
    return "(%s)" % text if cat.is_functor() else text


def arity(cat):
    """Number of argument slots on the spine of `cat`."""
    count = 0
    while cat.result is not None:
        count += 1
        cat = cat.result
    return count


def target(cat):
    """The atomic result left after peeling every argument."""
    while cat.result is not None:
        cat = cat.result
    return cat


def is_modifier(cat):
    """True for X/X and X\\X categories, which pass headship to their argument."""
    return cat.is_functor() and cat.result == cat.argument


def apply(fn, arg, direction):
    """Function application.  Returns the result category, or None when the
    pair does not combine (a normal negative outcome, not an error)."""
    if fn.is_functor() and fn.direction == direction and fn.argument == arg:
        return fn.result
    return None


def compose(primary, secondary, direction):
    """Function composition: X/Y with Y/Z gives X/Z (backward mirrored).

    `primary` supplies the outer result, `secondary` the passed-through
    argument.  Returns None when the shapes do not match.
    """
    if not (primary.is_functor() and secondary.is_functor()):
        return None
    if primary.direction != direction or secondary.direction != direction:
        return None
    if primary.argument != secondary.result:
        return None
    return Category(None, None, primary.result, direction,
                    secondary.argument)


# Binary rule names, in the fixed precedence used when classifying nodes.
FORWARD_APPLY = "fa"
BACKWARD_APPLY = "ba"
FORWARD_COMPOSE = "fc"
BACKWARD_COMPOSE = "bc"
# rule -> the parent it derives from a (left, right) pair, or None
_RULES = {
    FORWARD_APPLY: lambda left, right: apply(left, right, FORWARD),
    BACKWARD_APPLY: lambda left, right: apply(right, left, BACKWARD),
    FORWARD_COMPOSE: lambda left, right: compose(left, right, FORWARD),
    BACKWARD_COMPOSE: lambda left, right: compose(right, left, BACKWARD),
}


@lru_cache(maxsize=None)
def derivation_rule(left, right, parent):
    """The first rule, in the precedence order of _RULES, under which
    `parent` derives from (left, right), or None."""
    for rule, derive in _RULES.items():
        if derive(left, right) is parent:
            return rule
    return None
