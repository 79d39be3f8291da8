"""Base class of the package's record classes, written once instead of
generated per class so that defining them costs nothing at import.

A record lists its attributes in `__slots__`, and in `_fields` those
that take part in equality, hashing and the `Name(field=value, ...)`
repr.  Its own `__init__` validates and sets them with
`object.__setattr__`.  Records are frozen, unless declared with
`frozen=False`, which also makes them unhashable.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls, frozen=True):
        cls._values = attrgetter(*cls._fields)  # not a descriptor: never bound
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle hand over the slots as (None, {name: value})
        for name, value in state[1].items():
            object.__setattr__(self, name, value)
