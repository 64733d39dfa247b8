"""Base class of the package's small immutable value records."""
from operator import attrgetter


class Record:
    """
    A value record with `__slots__`: equal when its class and its `_fields`
    are equal, hashed and shown by those fields, and frozen, so assigning or
    deleting an attribute raises AttributeError.  A subclass's __init__
    takes its `_fields` in order, checks them and passes them on to this
    __init__, or, on a hot path, sets its slots with object.__setattr__.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The compared value: the one field itself, or a tuple of several.
        cls._key = attrgetter(*cls._fields)

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
