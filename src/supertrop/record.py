"""Immutable values: the one guard, and the base of the small answer types.

`Frozen` is the guard that `Element`, `sparse.SparsePoly` and `Record`
inherit: assigning or deleting an attribute raises AttributeError, so
their constructors set slots with `object.__setattr__` or a slot's setter,
and copies and pickles rebuild through the constructor.

A record lists its fields in `__slots__`, and the one `__init__` here sets
them: positional values in slot order, then keywords, then the class's
`_defaults` for the fields left out.  A missing, extra, repeated or
unknown field is a TypeError.  The base adds what a frozen value needs:
equality between records of the same class with equal fields, a hash of
the field tuple and a repr of the form `Name(field=value, ...)`.
"""

from operator import attrgetter


class Frozen:
    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __reduce__(self):
        # The default restore sets slots one by one and meets the guard;
        # the slots in order are the constructor's arguments.
        return type(self), tuple(getattr(self, f) for f in self.__slots__)


class Record(Frozen):
    __slots__ = ()
    # Field -> value, for the fields a caller may leave out.
    _defaults: dict = {}

    def __init_subclass__(cls) -> None:
        fields = cls.__slots__
        # attrgetter returns a tuple only for two or more names.
        key = (attrgetter(*fields) if len(fields) > 1
               else lambda r: tuple(getattr(r, f) for f in fields))
        cls._key = staticmethod(key)
        # The slots' own setters, in field order: __setattr__ refuses.
        cls._setters = tuple(getattr(cls, f).__set__ for f in fields)

    def __init__(self, *args, **kwargs) -> None:
        fields, setters = self.__slots__, self._setters
        n = len(args)
        if n > len(fields):
            raise self._fields_error(n, kwargs)
        for set_, value in zip(setters, args):
            set_(self, value)
        if n == len(fields) and not kwargs:
            return
        # The fields left, each from its keyword or else its default.  Every
        # keyword must name one of them; that is checked before a missing
        # field is reported.
        defaults = self._defaults
        used, missing = 0, None
        for name, set_ in zip(fields[n:], setters[n:]):
            if name in kwargs:
                set_(self, kwargs[name])
                used += 1
            elif name in defaults:
                set_(self, defaults[name])
            elif missing is None:
                missing = name
        if used != len(kwargs):
            raise self._fields_error(n, kwargs)
        if missing is not None:
            raise TypeError(f"{type(self).__name__} is missing the field "
                            f"{missing!r}")

    def _fields_error(self, n: int, kwargs: dict) -> TypeError:
        return TypeError(f"{type(self).__name__} has the fields "
                        f"{self.__slots__}; got {n} positional and "
                        f"{sorted(kwargs)}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == other._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__qualname__}({fields})"
