"""Immutable value records.

A `Value` subclass lists its fields, two or more, in `__slots__` and sets
them through `object.__setattr__` in its own `__init__`, which checks its
invariants.  The constructor is the boundary for data from outside;
`unchecked` is the one way to build an instance without those checks, for
results that hold the invariants by construction and for unpickling and
copying.  Equality, hashing, `repr`, pickling and copying go by the fields
in slot order, as for a frozen dataclass; assigning or deleting a field
raises AttributeError.  Unlike a dataclass it generates no code at import
time.
"""

from __future__ import annotations

from operator import attrgetter


class Value:
    """Immutable record compared, hashed and shown by its slot values."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # attrgetter of two or more names returns the tuple of their values
        if len(cls.__slots__) < 2:
            raise TypeError(f"{cls.__name__} needs at least two fields")
        cls._values = attrgetter(*cls.__slots__)

    @classmethod
    def unchecked(cls, *values):
        """An instance holding one value per field, in slot order, without the
        constructor's checks: the caller vouches for every invariant."""
        self = object.__new__(cls)
        for name, value in zip(cls.__slots__, values, strict=True):
            object.__setattr__(self, name, value)
        return self

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(
            f"{name}={value!r}" for name, value in zip(self.__slots__, self._values(self))
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.unchecked, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
