"""Base classes of the record classes.

A record class names its fields in ``__slots__``; Record's constructor
takes them positionally, in that order.  A record that validates,
defaults or takes keywords has its own ``__init__``, which ends in
``super().__init__(...)`` or, if hot, assigns the fields itself.  A slot
whose name starts with an underscore is no field: its record's own
``__init__`` sets it to a cache of a value derived from the fields.  Two
records are equal when they are of one class and their fields are equal.
A Record is mutable and unhashable; a FrozenRecord cannot be assigned to
once built, so it hashes by its fields.
"""


class Record:
    __slots__ = ()
    __hash__ = None

    def __init__(self, *fields):
        if len(fields) != len(self.__slots__):
            raise TypeError("%s takes %d fields, got %d" % (
                self.__class__.__name__, len(self.__slots__), len(fields)))
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def _fields(self):
        return tuple(getattr(self, name) for name in self.__slots__
                     if name[0] != "_")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__name__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__
            if name[0] != "_"))


class FrozenRecord(Record):
    """A record whose constructor sets its fields with object.__setattr__;
    assigning or deleting an attribute afterwards raises AttributeError."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __hash__(self):
        return hash(self._fields())
