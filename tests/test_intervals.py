"""Closed-interval unions: intersection against the pairwise oracle."""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from supertrop import IntervalSet, NEG_INF, POS_INF


def intersect_oracle(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    """Every pair of pieces, re-sorted and merged."""
    out = []
    for alo, ahi in a.intervals:
        for blo, bhi in b.intervals:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo <= hi:
                out.append((lo, hi))
    return IntervalSet.of(out)


# A small endpoint range makes single points, touching and nested pieces
# common; either end may be unbounded.
_end = st.integers(-5, 5).map(Fraction)


@st.composite
def interval_sets(draw):
    pairs = []
    for _ in range(draw(st.integers(0, 6))):
        lo, hi = sorted((draw(_end), draw(_end)))
        if draw(st.integers(0, 4)) == 0:
            lo = NEG_INF
        if draw(st.integers(0, 4)) == 0:
            hi = POS_INF
        pairs.append((lo, hi))
    return IntervalSet.of(pairs)


@settings(max_examples=500, deadline=None)
@given(interval_sets(), interval_sets())
def test_intersect_matches_pairwise_oracle(a, b):
    got = a.intersect(b)
    assert got == intersect_oracle(a, b)
    assert got == b.intersect(a)
    assert IntervalSet.of(got.intervals) == got


def test_intersect_examples():
    one, two, three = Fraction(1), Fraction(2), Fraction(3)
    gaps = IntervalSet.of([(Fraction(0), one), (two, three)])
    # Touching ends give single points, which stay separate.
    assert gaps.intersect(IntervalSet.of([(one, two)])) == IntervalSet.of(
        [(one, one), (two, two)])
    # A nested piece comes back whole; the whole line is the identity.
    line = IntervalSet.of([(NEG_INF, POS_INF)])
    assert gaps.intersect(line) == gaps == line.intersect(gaps)
    assert IntervalSet.of([(NEG_INF, one)]).intersect(
        IntervalSet.of([(one, POS_INF)])) == IntervalSet(((one, one),))
    assert gaps.intersect(IntervalSet.empty()).is_empty
