"""Scalar semiring arithmetic."""

from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from supertrop import Element, ONE, ZERO, ghost, tangible
from supertrop.element import as_fraction


# Few magnitudes, so sums tie often; Zero and ghosts come up too.
elements = st.one_of(
    st.just(ZERO), st.just(ONE),
    st.builds(Element, st.integers(-6, 6).map(lambda k: Fraction(k, 2)),
              st.booleans()))


def test_addition_examples():
    assert tangible(2) + tangible(2) == ghost(2)
    assert ZERO + tangible(3) == tangible(3)
    assert tangible(1) + ghost(1) == ghost(1)
    assert tangible(5) + tangible(3) == tangible(5)
    assert ghost(3) + tangible(5) == tangible(5)


def test_multiplication_examples():
    assert tangible(2) * tangible(3) == tangible(5)
    assert ghost(2) * tangible(3) == ghost(5)
    assert ZERO * ghost(7) == ZERO
    assert ghost(1) * ghost(1) == ghost(2)


def test_nu_and_hat():
    assert tangible(4).nu() == ghost(4)
    assert ghost(4).nu() == ghost(4)
    assert ZERO.nu() == ZERO
    assert ghost(4).hat() == tangible(4)
    assert tangible(4).hat() == tangible(4)
    assert ZERO.hat() == ZERO


def test_powers():
    assert tangible(2) ** 3 == tangible(6)
    assert ghost(1) ** 2 == ghost(2)
    assert tangible(5) ** 0 == ONE
    assert ZERO ** 0 == ONE
    assert ZERO ** 3 == ZERO


def test_division():
    assert tangible(5) / tangible(2) == tangible(3)
    assert ghost(5) / tangible(2) == ghost(3)
    with pytest.raises(ZeroDivisionError):
        tangible(1) / ZERO


def test_parse_round_trip():
    for text in ["-inf", "3", "-5/2", "7v", "1/3v", "0", "0v"]:
        assert str(Element.parse(text)) == text


def test_text_outside_the_grammar_is_refused_at_once():
    # Fraction reads decimals and exponents, and "1e10000000" made it build
    # a ten-million-digit power of ten; the grammar's reader refuses them.
    start = perf_counter()
    for text in ["0.5", "1e-3v", "1e300000", "1/0", "+3", "v", "-infv"]:
        with pytest.raises(ValueError):
            Element.parse(text)
    for text in ["1e10000000", "0.5", " 3"]:
        with pytest.raises(ValueError):
            as_fraction(text)
    assert perf_counter() - start < 1
    assert as_fraction("-5/2") == Fraction(-5, 2) and as_fraction(3) == 3


def test_magnitudes_are_exact_at_the_door():
    # Printing and sums would work on a float or a str, and the integer
    # kernels fail on it far from the caller; so it is refused here.
    for bad in (1.5, "3", True, False, 2j, [1]):
        with pytest.raises(TypeError, match="magnitude must be"):
            Element(bad)
        with pytest.raises(TypeError):
            Element(bad, True)
    # An int is stored as a Fraction, so every reader sees one type.
    for value in (3, -7, 10 ** 40):
        e = Element(value, True)
        assert type(e.mag) is Fraction and e == ghost(value)
        assert hash(e) == hash(ghost(value)) and str(e) == f"{value}v"
    assert type(Element(Fraction(5, 2)).mag) is Fraction
    # The rational reader behind `tangible` and `ghost` agrees on bools.
    for make in (as_fraction, tangible, ghost):
        with pytest.raises(TypeError, match="not an exact rational"):
            make(True)
    assert Element(None) == ZERO
    with pytest.raises(ValueError, match="Zero carries no layer flag"):
        Element(None, True)


def test_layer_flags_are_bools_at_the_door():
    # A flag of another type would print like a bool but split one value
    # in two: Element(1, None) would differ from the tangible 1 and hash
    # apart, and Element(1, "yes") would print 1v but differ from ghost(1).
    for flag in (None, "yes", 1, 0, 1.0, [True]):
        with pytest.raises(TypeError, match="layer flag must be a bool"):
            Element(1, flag)
        with pytest.raises(TypeError, match="layer flag must be a bool"):
            Element(None, flag)
    assert Element(1, False) == Element(1) == tangible(1)
    assert hash(Element(1, False)) == hash(tangible(1))
    assert Element(1, True) == ghost(1) and str(Element(1, True)) == "1v"
    assert Element(None, False) == ZERO


def test_layer_predicates():
    assert ZERO.is_zero and ZERO.in_ghost_ideal and not ZERO.is_tangible
    assert tangible(1).is_tangible and not tangible(1).in_ghost_ideal
    assert ghost(1).in_ghost_ideal and not ghost(1).is_tangible


@settings(max_examples=300, deadline=None)
@given(elements, elements, elements)
def test_semiring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a and a * ONE == a and a * ZERO == ZERO
    # Supertropical collapse: adding anything of equal nu-value ghosts.
    assert a + a == a.nu()
    assert (a + b).nu() == a.nu() + b.nu()
    assert (a * b).nu() == a.nu() * b.nu()
