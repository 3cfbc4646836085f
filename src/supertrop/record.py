"""Immutable value records: the base of the package's small answer types.

A record lists its fields in `__slots__` and sets them in its own
`__init__` with `object.__setattr__`, the idiom of `Element` and `Poly`.
The base adds what a frozen value needs: equality between records of the
same class with equal fields, a hash of the field tuple, a repr of the
form `Name(field=value, ...)`, and no assignment after construction.
"""

from operator import attrgetter


class Record:
    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = cls.__slots__
        # attrgetter returns a tuple only for two or more names.
        key = (attrgetter(*fields) if len(fields) > 1
               else lambda r: tuple(getattr(r, f) for f in fields))
        cls._key = staticmethod(key)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # Fields in slot order are the positional arguments of __init__.
        return type(self), self._key(self)
