import importlib
import pkgutil

import pytest

import ccgmwe
from ccgmwe.evaluation import EvalReport
from ccgmwe.records import Record
from ccgmwe.treebank import LexiconEntry


def _record_classes():
    """Every Record subclass that a ccgmwe module defines."""
    for info in pkgutil.iter_modules(ccgmwe.__path__):
        importlib.import_module("ccgmwe." + info.name)
    found, todo = [], [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("ccgmwe."):
                found.append(cls)
    return found


@pytest.mark.parametrize("cls,fields", [(EvalReport, 7), (EvalReport, 9),
                                        (LexiconEntry, 3)],
                         ids=["record-short", "record-long", "frozen-short"])
def test_constructor_checks_the_field_count(cls, fields):
    with pytest.raises(TypeError) as err:
        cls(*range(fields))
    assert str(err.value) == "%s takes %d fields, got %d" % (
        cls.__name__, len(cls.__slots__), fields)


def test_constructor_sets_the_fields_of_a_frozen_record_in_slot_order():
    entry = LexiconEntry(("a", "b"), "general", 3, (1, 2))
    assert (entry.units, entry.kind, entry.mwe_count, entry.unit_counts) == (
        ("a", "b"), "general", 3, (1, 2))
    with pytest.raises(AttributeError):
        entry.kind = "stop-word"


def test_no_inherited_constructor_fills_a_private_slot():
    """Record's constructor takes every slot positionally, so a record
    with a cache slot such as ParserModel._indexes needs its own."""
    classes = _record_classes()
    assert {cls.__name__ for cls in classes} >= {"EvalReport", "ParserModel",
                                                 "LexiconEntry"}
    inheriting = [cls for cls in classes if cls.__init__ is Record.__init__]
    assert EvalReport in inheriting
    for cls in inheriting:
        assert not [name for name in cls.__slots__ if name[0] == "_"], cls
