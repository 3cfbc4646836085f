"""Ground arithmetic for the supertropical semifield in logarithmic notation.

Elements come in three kinds:

* ``Zero`` is the additive identity (conventionally written ``-inf``),
* tangible elements carry an exact rational magnitude,
* ghost elements carry a magnitude plus the ghost layer marker.

Addition is max on magnitudes, except that a tie of distinct summands (or a
tangible/ghost tie) lands in the ghost layer; adding an element to itself also
ghosts it.  Multiplication adds magnitudes and ghostness is absorbing.  The
multiplicative identity is the tangible 0, written ``0`` (so numeric values
behave like logarithms).  Ghosts together with Zero form the ghost ideal,
which plays the role of zero in all root and singularity tests.

Rational text has one reader, the grammar's (`parse`), shared by the
tokenizer, `Element.parse`, `as_fraction`, the JSON reader and the CLI.
It reads no decimals or exponents, which `Fraction` would expand.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .record import Frozen

Rational = int | str | Fraction

_RATIONAL = r"(?P<num>-?\d+)(?:/(?P<den>\d+))?"
_RATIONAL_RE = re.compile(_RATIONAL)


def _ratio(num: str, den: str | None) -> tuple[int, int] | None:
    """The regex groups of a rational as ints (numerator, denominator),
    not reduced; None for a zero denominator.  Past
    `sys.get_int_max_str_digits`, raises ValueError."""
    n = int(num)
    d = int(den) if den else 1
    return (n, d) if d else None


def _read_rational(text: object) -> Fraction | None:
    """A whole string read as the grammar's rational, such as '-5/2'.

    None when it is not one or divides by zero; past the digit limit,
    `_ratio` raises ValueError."""
    m = _RATIONAL_RE.fullmatch(text) if isinstance(text, str) else None
    ratio = _ratio(*m.group("num", "den")) if m else None
    return None if ratio is None else Fraction(*ratio)


def as_fraction(value: Rational) -> Fraction:
    """Coerce ints, Fractions and rational text ('-3/4', else ValueError)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        out = _read_rational(value)
        if out is None:
            raise ValueError(f"not a rational like '-5/2': {value!r}")
        return out
    raise TypeError(f"not an exact rational: {value!r}")


class Element(Frozen):
    """One supertropical scalar: Zero, tangible, or ghost.

    ``mag`` is None exactly for Zero; ``is_ghost`` is the layer flag and is
    False for Zero (Zero is its own kind, though it belongs to the ghost
    ideal).  Instances are immutable and compare by value.
    """

    __slots__ = ("mag", "is_ghost")

    mag: Fraction | None
    is_ghost: bool

    def __init__(self, mag: int | Fraction | None, is_ghost: bool = False):
        # Exact magnitudes and a bool flag only: an int is stored as a
        # Fraction; anything else would fail far from here, or split one
        # value in two under equality and hashing.
        if type(is_ghost) is not bool:
            raise TypeError(f"layer flag must be a bool: {is_ghost!r}")
        if type(mag) is not Fraction:
            if mag is None:
                if is_ghost:
                    raise ValueError("Zero carries no layer flag")
            elif isinstance(mag, (int, Fraction)) and not isinstance(mag, bool):
                mag = Fraction(mag)
            else:
                raise TypeError(f"magnitude must be an int or a Fraction: "
                                f"{mag!r}")
        object.__setattr__(self, "mag", mag)
        object.__setattr__(self, "is_ghost", is_ghost)

    # -- kind predicates ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.mag is None

    @property
    def is_tangible(self) -> bool:
        """True for proper tangibles (Zero excluded)."""
        return self.mag is not None and not self.is_ghost

    @property
    def in_ghost_ideal(self) -> bool:
        """True for ghosts and for Zero."""
        return self.mag is None or self.is_ghost

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        a, b = self.mag, other.mag
        if a is None:
            return other
        if b is None:
            return self
        if a > b:
            return self
        if a < b:
            return other
        # Equal magnitudes: a tie is supertropical and produces a ghost,
        # including the a + a = a^nu case.
        if self.is_ghost:
            return self
        return Element(a, True)

    def __mul__(self, other: "Element") -> "Element":
        if self.mag is None or other.mag is None:
            return ZERO
        return Element(self.mag + other.mag, self.is_ghost or other.is_ghost)

    def __pow__(self, n: int) -> "Element":
        """n-th multiplicative power; Zero ** 0 is defined to be One.

        Defining Zero ** 0 = One keeps empty products well behaved (the same
        convention as x ** 0 = 1 in ordinary arithmetic).
        """
        if type(n) is not int or n < 0:
            raise ValueError(f"exponent must be a nonnegative integer: {n!r}")
        if n == 0:
            return ONE
        if self.mag is None:
            return ZERO
        return Element(self.mag * n, self.is_ghost)

    def __truediv__(self, other: "Element") -> "Element":
        """Exact division; dividing by Zero is a domain error.

        Division by a ghost is defined (the quotient stays in the ghost
        layer), matching ghost absorption under multiplication.
        """
        if other.mag is None:
            raise ZeroDivisionError("division by the supertropical Zero")
        if self.mag is None:
            return ZERO
        return Element(self.mag - other.mag, self.is_ghost or other.is_ghost)

    def nu(self) -> "Element":
        """Ghost map: collapse onto the ghost copy; Zero is fixed."""
        if self.mag is None:
            return ZERO
        return Element(self.mag, True)

    def hat(self) -> "Element":
        """Tangible retract: drop the ghost layer; Zero is fixed."""
        if self.mag is None:
            return ZERO
        return Element(self.mag, False)

    # -- value protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.mag == other.mag and self.is_ghost == other.is_ghost

    def __hash__(self) -> int:
        return hash((self.mag, self.is_ghost))

    def __repr__(self) -> str:
        return f"Element({self})"

    def __str__(self) -> str:
        if self.mag is None:
            return "-inf"
        text = str(self.mag)
        return text + "v" if self.is_ghost else text

    @staticmethod
    def parse(text: str) -> "Element":
        """Inverse of str(): '-inf', '3', '-5/2', '7v', '1/3v'.

        Other text raises ValueError."""
        text = text.strip()
        if text == "-inf":
            return ZERO
        is_ghost = text.endswith("v")
        return Element(as_fraction(text[:-1] if is_ghost else text), is_ghost)


ZERO = Element(None)
ONE = Element(Fraction(0))


def tangible(value: Rational) -> Element:
    """Tangible element of the given magnitude."""
    return Element(as_fraction(value), False)


def ghost(value: Rational) -> Element:
    """Ghost element of the given magnitude."""
    return Element(as_fraction(value), True)
