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
"""

from __future__ import annotations

from fractions import Fraction

Rational = int | str | Fraction


def as_fraction(value: Rational) -> Fraction:
    """Coerce ints, strings like '3/4', and Fractions to an exact Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, str)):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class Element:
    """One supertropical scalar: Zero, tangible, or ghost.

    ``mag`` is None exactly for Zero; ``is_ghost`` is the layer flag and is
    False for Zero (Zero is its own kind, though it belongs to the ghost
    ideal).  Instances are immutable and compare by value.
    """

    __slots__ = ("mag", "is_ghost")

    mag: Fraction | None
    is_ghost: bool

    def __init__(self, mag: Fraction | None, is_ghost: bool = False):
        if mag is None and is_ghost:
            raise ValueError("Zero carries no layer flag")
        object.__setattr__(self, "mag", mag)
        object.__setattr__(self, "is_ghost", is_ghost)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Element is immutable")

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
        if not isinstance(n, int) or n < 0:
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

    def nu_eq(self, other: "Element") -> bool:
        """Equality of ghost images (magnitude equality, layers ignored)."""
        return self.mag == other.mag

    def nu_le(self, other: "Element") -> bool:
        """Magnitude comparison with Zero below everything."""
        if self.mag is None:
            return True
        if other.mag is None:
            return False
        return self.mag <= other.mag

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
        """Inverse of str(): '-inf', '3', '-5/2', '7v', '1/3v'."""
        text = text.strip()
        if text == "-inf":
            return ZERO
        if text.endswith("v"):
            return Element(Fraction(text[:-1]), True)
        return Element(Fraction(text), False)


ZERO = Element(None)
ONE = Element(Fraction(0))


def tangible(value: Rational) -> Element:
    """Tangible element of the given magnitude."""
    return Element(as_fraction(value), False)


def ghost(value: Rational) -> Element:
    """Ghost element of the given magnitude."""
    return Element(as_fraction(value), True)
