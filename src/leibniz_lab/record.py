"""Immutable records, the base of the package's value classes.

A record class names its fields in ``__slots__`` and sets them in its own
``__init__`` through ``object.__setattr__``; any later assignment or
deletion raises ``AttributeError``.  Two records are equal when they have
the same class and equal fields, a record hashes as the tuple of its
fields (so one that holds a dict is unhashable), and its repr is
``Name(field=value, ...)``.
"""


class Record:
    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            "%s=%r" % (name, getattr(self, name)) for name in self.__slots__))

    def __reduce__(self):   # copy and pickle through __init__
        return type(self), self._values()
