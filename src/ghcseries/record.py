"""The immutable base of the library's value types.

A record class writes out its __init__, which sets each field once through
_set; its fields are that __init__'s parameters, in order.  Record gives it
what a frozen dataclass would: equality on the tuple of field values for
instances of the same class (NotImplemented otherwise), the hash of that
tuple, a Name(field=value, ...) repr, and FrozenInstanceError on assigning
or deleting any attribute.  Instances keep a __dict__, so pickle and copy
restore them without calling __setattr__.
"""

from operator import attrgetter


class FrozenInstanceError(AttributeError):
    """An attribute of a record was assigned or deleted."""


class Record:
    # Sets a field past __setattr__; only a record's own __init__ calls it.
    _set = object.__setattr__

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value, not a 1-tuple.
        cls._values = staticmethod(get if len(cls._fields) > 1 else lambda r: (get(r),))

    def __eq__(self, other):
        # The instance dicts hold exactly the fields, so this equals comparing
        # the field tuples, at about half the cost of building them.
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
