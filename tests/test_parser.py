"""Text grammar and JSON codec round trips."""

from fractions import Fraction

import pytest

from supertrop import (BiPoly, Element, ParseError, Poly, bipoly_from_json,
                       bipoly_to_json, parse_bipoly, parse_element,
                       parse_poly, poly_from_json, poly_to_json)
from supertrop.checks import Gen


def test_element_round_trips():
    for text in ["-inf", "3", "-5/2", "7v", "1/3v", "0", "0v"]:
        assert str(parse_element(text)) == text


def test_poly_round_trips():
    gen = Gen(601)
    for _ in range(300):
        f = gen.poly(6)
        assert parse_poly(str(f)) == f, f
    assert parse_poly(str(Poly.zero())) == Poly.zero()


def test_bipoly_round_trips():
    gen = Gen(602)
    for _ in range(200):
        f = gen.bipoly(4)
        assert parse_bipoly(str(f)) == f, f
    assert parse_bipoly("-inf") == BiPoly.zero()


def test_whitespace_and_parens():
    assert parse_poly(" x ^ 2+ 3v *x+ 2 ") == parse_poly("x^2 + 3v*x + 2")
    assert parse_poly("(x+1)*((x+2))") == parse_poly("x+1") * parse_poly("x+2")
    assert parse_poly("(x+1)^3") == parse_poly("x+1") ** 3


def test_expression_evaluation():
    # '+' and '*' parse as semiring operations, not formal sums.
    assert str(parse_poly("x + x")) == "0v*x"
    assert str(parse_poly("2*3")) == "5"
    assert str(parse_poly("x*x")) == "x^2"


def test_parse_errors_carry_positions():
    cases = [
        ("x + + 3", 4),
        ("z", 0),
        ("", 0),
        ("x^-1", 2),
        ("(x + 1", 6),
        ("1/0", 0),
    ]
    for text, pos in cases:
        with pytest.raises(ParseError) as info:
            parse_poly(text)
        assert info.value.pos == pos, text
        assert f"position {pos}" in str(info.value)


def test_variable_restrictions():
    with pytest.raises(ParseError):
        parse_poly("x + y")
    with pytest.raises(ParseError):
        parse_element("x + 1")
    assert parse_element("2*3v") == Element(Fraction(5), True)


def test_json_round_trips():
    gen = Gen(603)
    for _ in range(200):
        f = gen.poly(6)
        assert poly_from_json(poly_to_json(f)) == f, f
        g = gen.bipoly(4)
        assert bipoly_from_json(bipoly_to_json(g)) == g, g
    assert poly_from_json(poly_to_json(Poly.zero())) == Poly.zero()


def test_json_shape():
    data = poly_to_json(parse_poly("x + 1/2v"))
    assert data["vars"] == 1
    terms = {t["i"]: t for t in data["terms"]}
    assert terms[0] == {"i": 0, "value": "1/2", "layer": "ghost"}
    assert terms[1] == {"i": 1, "value": "0", "layer": "tangible"}


def test_json_validation():
    with pytest.raises(ValueError):
        poly_from_json({"vars": 2, "terms": []})
    with pytest.raises(ValueError):
        bipoly_from_json({"vars": 3, "terms": []})
    # One-variable data loads as a bivariate polynomial in x alone.
    f = parse_poly("x + 4")
    lifted = bipoly_from_json(poly_to_json(f))
    assert lifted == parse_bipoly("x + 4")


def test_deep_nesting_is_a_parse_error():
    assert parse_bipoly("(" * 50 + "x + 1" + ")" * 50) == parse_bipoly("x + 1")
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_bipoly("(" * 3000 + "x" + ")" * 3000)
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_poly("x + " + "(" * 101 + "1" + ")" * 101)
