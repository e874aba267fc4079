"""Immutable records, the base of the package's value classes.

A record class names its fields once, in ``__slots__`` (a subclass's own
slots follow its parent's fields), and ``Record(*args, **kwargs)`` binds
them by position, then by keyword, then from the class's ``_defaults``
({field: value} for the optional fields), raising ``TypeError`` for an
extra positional argument, an unknown or repeated keyword or a missing
field.  Assignment and deletion raise ``AttributeError``.  Two records are
equal when they have the same class and equal fields, a record hashes as
the tuple of its fields (so one that holds a dict is unhashable), its repr
is ``Name(field=value, ...)``, and copy and pickle rebuild it by position.
"""


class Record:
    __slots__ = ()
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = cls._fields + tuple(vars(cls).get("__slots__", ()))

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if len(args) > len(fields):
            raise TypeError("%s takes %d fields, %d given" % (
                type(self).__qualname__, len(fields), len(args)))
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        for name in fields[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in self._defaults:
                value = self._defaults[name]
            else:
                raise TypeError("%s: missing field %r" % (
                    type(self).__qualname__, name))
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError("%s: unknown or repeated fields %s" % (
                type(self).__qualname__, ", ".join(map(repr, kwargs))))

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

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
            "%s=%r" % (name, getattr(self, name)) for name in self._fields))

    def __reduce__(self):   # copy and pickle through __init__
        return type(self), self._values()
