"""Finite unions of closed intervals over the rationals.

Endpoints are exact Fractions, except that a lower endpoint may be -inf and
an upper endpoint +inf (the float infinities are used as sentinels; they
compare exactly against Fractions and never enter arithmetic).  An
IntervalSet is kept normalized: intervals are sorted, pairwise disjoint, and
separated, so equality of sets is equality of the representation.

Tangible root sets of one-variable supertropical polynomials are exactly such
unions; RootSet couples the intervals with a flag recording whether the
bottom element -inf itself is a root.  Both are value records (`record`):
slotted, immutable, compared and hashed by their fields.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from .record import Record

NEG_INF = float("-inf")
POS_INF = float("inf")

Endpoint = Fraction | float


def _fmt_endpoint(x: Endpoint) -> str:
    if x == NEG_INF:
        return "-inf"
    if x == POS_INF:
        return "inf"
    return str(x)


def intersect_sorted(a: Sequence[tuple], b: Sequence[tuple]) -> list[tuple]:
    """Intersection of two sorted lists of disjoint closed intervals.

    A two-pointer merge in O(n + m): each step intersects the current pair
    and drops the one that ends first.  Two pieces of the result that come
    from the same interval on one side come from different, hence
    separated, intervals on the other, so the result is sorted and
    disjoint, and separated when both inputs are.
    """
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (alo, ahi), (blo, bhi) = a[i], b[j]
        lo = max(alo, blo)
        hi = min(ahi, bhi)
        if lo <= hi:
            out.append((lo, hi))
        if ahi < bhi:
            i += 1
        else:
            j += 1
    return out


class IntervalSet(Record):
    """Sorted union of disjoint, separated closed intervals [lo, hi]."""

    __slots__ = ("intervals",)

    intervals: tuple[tuple[Endpoint, Endpoint], ...]
    _defaults = {"intervals": ()}

    @staticmethod
    def of(pairs: Iterable[tuple[Endpoint, Endpoint]]) -> "IntervalSet":
        """Normalize arbitrary closed intervals: sort and merge overlaps.

        Touching intervals ([1,2] and [2,3]) merge as well, so the stored
        pieces are genuinely separated.
        """
        items: list[tuple[Endpoint, Endpoint]] = []
        for lo, hi in pairs:
            if lo > hi:
                raise ValueError(f"empty interval [{lo}, {hi}]")
            if lo == POS_INF or hi == NEG_INF:
                raise ValueError("interval endpoints out of range")
            items.append((lo, hi))
        items.sort(key=lambda p: (p[0], p[1]))
        merged: list[tuple[Endpoint, Endpoint]] = []
        for lo, hi in items:
            if merged and lo <= merged[-1][1]:
                last_lo, last_hi = merged[-1]
                merged[-1] = (last_lo, max(last_hi, hi))
            else:
                merged.append((lo, hi))
        return IntervalSet(tuple(merged))

    @staticmethod
    def empty() -> "IntervalSet":
        return _EMPTY

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def __iter__(self) -> Iterator[tuple[Endpoint, Endpoint]]:
        return iter(self.intervals)

    def __contains__(self, x: Fraction) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)

    def union(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet.of(list(self.intervals) + list(other.intervals))

    def intersect(self, other: "IntervalSet") -> "IntervalSet":
        return IntervalSet(tuple(intersect_sorted(self.intervals,
                                                  other.intervals)))

    def contains_set(self, other: "IntervalSet") -> bool:
        return other.intersect(self) == other

    def leftmost_finite(self) -> Fraction | None:
        """Deterministic finite representative: the leftmost finite endpoint.

        For a leading interval unbounded below, its (finite) upper endpoint
        is used; for the whole line, 0.  None on the empty set.
        """
        if not self.intervals:
            return None
        lo, hi = self.intervals[0]
        if isinstance(lo, Fraction):
            return lo
        if isinstance(hi, Fraction):
            return hi
        return Fraction(0)

    def __str__(self) -> str:
        if not self.intervals:
            return "{}"
        parts = []
        for lo, hi in self.intervals:
            if lo == hi:
                parts.append("{%s}" % _fmt_endpoint(lo))
            else:
                left = "(" if lo == NEG_INF else "["
                right = ")" if hi == POS_INF else "]"
                parts.append(f"{left}{_fmt_endpoint(lo)}, {_fmt_endpoint(hi)}{right}")
        return " u ".join(parts)


_EMPTY = IntervalSet(())


class RootSet(Record):
    """Tangible root locus: closed intervals plus the bottom-element flag."""

    __slots__ = ("intervals", "at_bottom")

    intervals: IntervalSet
    at_bottom: bool
    _defaults = {"intervals": _EMPTY, "at_bottom": False}

    @property
    def is_empty(self) -> bool:
        return self.intervals.is_empty and not self.at_bottom

    def __contains__(self, x: Fraction) -> bool:
        return x in self.intervals

    def intersect(self, other: "RootSet") -> "RootSet":
        return RootSet(self.intervals.intersect(other.intervals),
                       self.at_bottom and other.at_bottom)

    def union(self, other: "RootSet") -> "RootSet":
        return RootSet(self.intervals.union(other.intervals),
                       self.at_bottom or other.at_bottom)

    def __str__(self) -> str:
        text = str(self.intervals)
        if self.at_bottom:
            text = "{-inf}" if text == "{}" else text + " u {-inf}"
        return text
