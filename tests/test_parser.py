"""Text grammar and JSON codec round trips."""

import re
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from supertrop import (BiPoly, Element, ONE, ZERO, ParseError, Poly,
                       bipoly_from_json, bipoly_to_json, parse_bipoly,
                       parse_element, parse_poly, poly_from_json,
                       poly_to_json)
from supertrop.checks import Gen
from supertrop.parse import MAX_DEPTH


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
    # Trailing whitespace is skipped in linear time.
    assert parse_poly("x" + " " * 100_000) == parse_poly("x")


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


# Zero, ghosts and rationals that are not integers, on sparse supports;
# a Zero coefficient is dropped, so an empty map is the zero polynomial.
_json_elements = st.one_of(st.just(ZERO), st.builds(
    Element, st.fractions(max_denominator=10**6), st.booleans()))


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(0, 40), _json_elements, max_size=6).map(Poly),
       st.dictionaries(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                       _json_elements, max_size=6).map(BiPoly))
@example(Poly.zero(), BiPoly.zero())
def test_json_round_trips(f, g):
    assert poly_from_json(poly_to_json(f)) == f
    assert bipoly_from_json(bipoly_to_json(g)) == g
    # One-variable data also loads as a polynomial in x.
    assert bipoly_from_json(poly_to_json(f)) == BiPoly.from_poly(f)


def test_json_shape():
    data = poly_to_json(parse_poly("x + 1/2v"))
    assert data["vars"] == 1
    terms = {t["i"]: t for t in data["terms"]}
    assert terms[0] == {"i": 0, "value": "1/2", "layer": "ghost"}
    assert terms[1] == {"i": 1, "value": "0", "layer": "tangible"}


def test_poly_json_lists_terms_by_ascending_degree():
    # Equal polynomials serialize alike, whatever order built them.
    built, parsed = Poly.linear(1), parse_poly("x + 1")
    assert built == parsed
    assert poly_to_json(built) == poly_to_json(parsed)
    data = poly_to_json(Poly({3: ONE, 0: ZERO, 5: ONE, 1: Element(2, True)}))
    assert [t["i"] for t in data["terms"]] == [1, 3, 5]


def test_json_validation():
    with pytest.raises(ValueError):
        poly_from_json({"vars": 2, "terms": []})
    with pytest.raises(ValueError):
        bipoly_from_json({"vars": 3, "terms": []})
    # One-variable data loads as a bivariate polynomial in x alone.
    f = parse_poly("x + 4")
    lifted = bipoly_from_json(poly_to_json(f))
    assert lifted == parse_bipoly("x + 4")


def _one_term(**term):
    return {"vars": 1, "terms": [term]}


@pytest.mark.parametrize("data, problem", [
    (_one_term(i=True, value="1e3", layer="bogus"), "term 0: exponents"),
    (_one_term(i=1.9, value="1", layer="ghost"), "term 0: exponents"),
    (_one_term(i="1", value="1", layer="ghost"), "term 0: exponents"),
    (_one_term(i=-1, value="1", layer="ghost"), "term 0: exponents"),
    (_one_term(i=1, value="1e3", layer="tangible"), "term 0: value"),
    (_one_term(i=1, value="1.5", layer="tangible"), "term 0: value"),
    (_one_term(i=1, value=" 1", layer="tangible"), "term 0: value"),
    (_one_term(i=1, value="1/-2", layer="tangible"), "term 0: value"),
    (_one_term(i=1, value="1/0", layer="tangible"), "term 0: value"),
    (_one_term(i=1, value="3v", layer="tangible"), "term 0: value"),
    (_one_term(i=1, value=3, layer="tangible"), "term 0: value"),
    (_one_term(i=1, value="inf", layer="tangible"), "term 0: value"),
    (_one_term(i=1, value="1", layer="bogus"), "term 0: layer"),
    (_one_term(i=1, value="1", layer="Ghost"), "term 0: layer"),
    (_one_term(i=1, value="-inf", layer=None), "term 0: layer"),
    (_one_term(i=1, value="1"), "term 0: missing key 'layer'"),
    (_one_term(value="1", layer="ghost"), "term 0: missing key 'i'"),
    (_one_term(i=1, layer="ghost"), "term 0: missing key 'value'"),
    (_one_term(i=1, j=2, value="1", layer="ghost"), "term 0: unknown key 'j'"),
    (_one_term(i=1, value="1", layer="ghost", lyer="tangible"),
     "term 0: unknown key 'lyer'"),
    ({"vars": 1, "terms": [{"i": 0, "value": "1", "layer": "ghost"},
                           {"i": 0, "value": "2", "layer": "tangible"}]},
     "term 1: repeated exponent"),
    ({"vars": 1, "terms": [{"i": 0, "value": "1", "layer": "ghost"}, 7]},
     "term 1: expected an object"),
    ({"vars": 1}, "'terms' list"),
    ({"vars": True, "terms": []}, "one-variable"),
    (_one_term(i=1, value="1" * 5000, layer="tangible"), "term 0: number too long"),
])
def test_poly_json_is_strict(data, problem):
    with pytest.raises(ValueError, match=re.escape(problem)):
        poly_from_json(data)


@pytest.mark.parametrize("terms, problem", [
    ([{"i": 1, "value": "1", "layer": "ghost"}], "term 0: missing key 'j'"),
    ([{"i": 1, "j": False, "value": "1", "layer": "ghost"}], "term 0: exponents"),
    ([{"i": 1, "j": 0, "k": 0, "value": "1", "layer": "ghost"}], "term 0: unknown key 'k'"),
    ([{"i": 0, "j": 2, "value": "1", "layer": "ghost"},
      {"i": 1, "j": 1, "value": "1", "layer": "ghost"},
      {"i": 0, "j": 2, "value": "-inf", "layer": "tangible"}],
     "term 2: repeated exponent"),
    ([{"i": 0, "j": 1, "value": "1", "layer": "tangible "}], "term 0: layer"),
    ([{"i": 0, "j": 1, "value": "1E3", "layer": "ghost"}], "term 0: value"),
    ([{"i": 0, "j": 1, "value": "1", "layer": "ghost"},
      {"i": 1, "j": 0, "value": "2/" + "3" * 5000, "layer": "ghost"}],
     "term 1: number too long"),
])
def test_bipoly_json_is_strict(terms, problem):
    with pytest.raises(ValueError, match=re.escape(problem)):
        bipoly_from_json({"vars": 2, "terms": terms})
    with pytest.raises(ValueError, match="'vars' of 1 or 2"):
        bipoly_from_json({"vars": True, "terms": []})


def test_json_accepts_the_written_forms():
    data = {"vars": 1, "terms": [
        {"i": 3, "value": "-5/2", "layer": "ghost"},
        {"i": 0, "value": "-0", "layer": "tangible"},
        {"i": 1, "value": "2/4", "layer": "tangible"},
        {"i": 2, "value": "-inf", "layer": "tangible"}]}
    f = poly_from_json(data)
    assert list(f.items()) == [(3, Element(Fraction(-5, 2), True)),
                               (0, ONE), (1, Element(Fraction(1, 2)))]
    assert bipoly_from_json({**data, "vars": 2, "terms": [
        {**t, "j": 1} for t in data["terms"]]}) == BiPoly(
        {(i, 1): c for i, c in f.items()})


def test_deep_nesting_is_a_parse_error():
    assert parse_bipoly("(" * 50 + "x + 1" + ")" * 50) == parse_bipoly("x + 1")
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_bipoly("(" * 3000 + "x" + ")" * 3000)
    with pytest.raises(ParseError, match="nesting too deep"):
        parse_poly("x + " + "(" * 101 + "1" + ")" * 101)


def test_over_long_number_is_a_parse_error():
    # Past the interpreter's limit on digits, int() raises a bare
    # ValueError; the oracle below lets it through, so these inputs are
    # checked here rather than against it.
    digits = "1" * 5000
    for text, pos in [(digits, 0), ("x + " + digits + "v", 4),
                      ("x^" + digits, 2), ("(y + -2/" + digits + ")", 5)]:
        for parse in (parse_poly, parse_bipoly, parse_element):
            with pytest.raises(ParseError, match="^number too long at") as info:
                parse(text)
            assert info.value.pos == pos, (parse.__name__, text[:12])
    assert parse_element("1" * 4300) == Element(Fraction(int("1" * 4300)))


# -- BiPoly-per-node oracle for the one-pass parser ---------------------------
# The parser before the sparse core: every node a validated BiPoly, sums and
# products written out here, powers by repeated multiplication, numbers read
# with Fraction, independently of the package's rational reader.

_ORACLE_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<neginf>-inf\b)
      | (?P<number>-?\d+(?:/\d+)?(?P<ghost>v)?)
      | (?P<var>[xy])
      | (?P<op>[-+*^()])
    """,
    re.VERBOSE,
)


def _oracle_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _ORACLE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup if m.lastgroup != "ghost" else "number"
        if kind == "number":
            number = m.group("number")
            ghost = number.endswith("v")
            try:
                value = Element(Fraction(number.rstrip("v")), ghost)
            except ZeroDivisionError:
                raise ParseError("malformed rational", pos)
            tokens.append(("scalar", value, pos))
        elif kind == "neginf":
            tokens.append(("scalar", ZERO, pos))
        elif kind == "var":
            tokens.append(("var", m.group("var"), pos))
        elif kind == "op":
            tokens.append((m.group("op"), m.group("op"), pos))
        pos = m.end()
    tokens.append(("end", None, pos))
    return tokens


def _oracle_add(p, q):
    out = dict(p.items())
    for key, c in q.items():
        out[key] = out[key] + c if key in out else c
    return BiPoly(out)


def _oracle_mul(p, q):
    out = {}
    for (i, j), c in p.items():
        for (k, l), d in q.items():
            key = (i + k, j + l)
            term = c * d
            out[key] = out[key] + term if key in out else term
    return BiPoly(out)


def _oracle_pow(p, n):
    out = BiPoly.constant(ONE)
    for _ in range(n):
        out = _oracle_mul(out, p)
    return out


class _OracleParser:
    def __init__(self, text):
        self.tokens = _oracle_tokenize(text)
        self.idx = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.idx]

    def take(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind):
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def poly(self):
        out = self.term()
        while self.peek()[0] == "+":
            self.take()
            out = _oracle_add(out, self.term())
        return out

    def term(self):
        out = self.factor()
        while self.peek()[0] == "*":
            self.take()
            out = _oracle_mul(out, self.factor())
        return out

    def factor(self):
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            kind, value, pos = self.expect("scalar")
            if (value.is_zero or value.is_ghost or value.mag.denominator != 1
                    or value.mag < 0):
                raise ParseError("exponent must be a nonnegative integer", pos)
            return _oracle_pow(base, int(value.mag))
        return base

    def atom(self):
        kind, value, pos = self.take()
        if kind == "scalar":
            return BiPoly.constant(value)
        if kind == "var":
            return BiPoly.monomial(1, 0) if value == "x" else BiPoly.monomial(0, 1)
        if kind == "(":
            self.depth += 1
            if self.depth > 100:
                raise ParseError("nesting too deep", pos)
            out = self.poly()
            self.expect(")")
            self.depth -= 1
            return out
        raise ParseError(f"expected a scalar, variable or '(', found {kind!r}", pos)


def oracle_parse_bipoly(text):
    parser = _OracleParser(text)
    out = parser.poly()
    parser.expect("end")
    return out


def oracle_parse_poly(text):
    bi = oracle_parse_bipoly(text)
    if not bi.is_zero and bi.deg_y > 0:
        raise ParseError("'y' is not allowed in a one-variable polynomial", 0)
    return Poly({i: c for (i, _), c in bi.items()})


def oracle_parse_element(text):
    bi = oracle_parse_bipoly(text)
    if not bi.is_zero and bi.total_degree > 0:
        raise ParseError("expected a scalar", 0)
    return bi.coeff(0, 0)


def _outcome(parse, text):
    """Everything a caller can see of one parse: value, order, or the error."""
    try:
        value = parse(text)
    except Exception as exc:  # the class is part of the outcome
        return ("raised", type(exc), str(exc), getattr(exc, "pos", None))
    items = None if isinstance(value, Element) else list(value.items())
    return ("value", value, str(value), items)


_PAIRS = [(parse_poly, oracle_parse_poly),
          (parse_bipoly, oracle_parse_bipoly),
          (parse_element, oracle_parse_element)]


def assert_matches_oracle(text):
    for parse, oracle in _PAIRS:
        assert _outcome(parse, text) == _outcome(oracle, text), (parse.__name__, text)


# Texts from the grammar, with whitespace, ghosts, -inf, -0, unreduced
# rationals and zero exponents; rarely a zero denominator or a bad exponent.
_ws = st.sampled_from(["", "", "", " ", "  ", "\t", "\n "])
_rational = st.builds(
    lambda neg, n, d: ("-" if neg else "") + str(n) + ("" if d is None else f"/{d}"),
    st.booleans(), st.integers(0, 12),
    st.one_of(st.none(), st.none(), st.integers(1, 6), st.just(0)))
_scalar = st.one_of(st.just("-inf"),
                    st.builds(lambda r, v: r + v, _rational, st.sampled_from(["", "v"])))
_exponent = st.one_of(st.integers(0, 3).map(str),
                      st.sampled_from(["-1", "2v", "-inf", "4/2", "1/2", "-0"]))


@st.composite
def grammar_text(draw, depth=0):
    def factor():
        kind = draw(st.sampled_from(["scalar", "var", "var", "paren"]
                                    if depth < 3 else ["scalar", "var"]))
        if kind == "scalar":
            atom = draw(_scalar)
        elif kind == "var":
            atom = draw(st.sampled_from(["x", "y", "x"]))
        else:
            atom = "(" + draw(_ws) + draw(grammar_text(depth + 1)) + draw(_ws) + ")"
        if draw(st.integers(0, 3)) == 0:
            atom += draw(_ws) + "^" + draw(_ws) + draw(_exponent)
        return atom

    def joined(parts, op):
        out = parts[0]
        for part in parts[1:]:
            out += draw(_ws) + op + draw(_ws) + part
        return out

    terms = [joined([factor() for _ in range(draw(st.integers(1, 3)))], "*")
             for _ in range(draw(st.integers(1, 3)))]
    return draw(_ws) + joined(terms, "+") + draw(_ws)


_NOISE = list("xyz()+*^-/v 0123456789.e") + ["inf", "1/0", "-inf", "^-1", "++"]


@st.composite
def mutated_text(draw):
    """A grammar text with a few characters deleted, inserted or repeated."""
    text = draw(grammar_text())
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["delete", "insert", "repeat"]))
        if edit == "delete":
            text = text[:k] + text[k + 1:]
        elif edit == "insert":
            text = text[:k] + draw(st.sampled_from(_NOISE)) + text[k:]
        else:
            text = text[:k] + text[k:k + 3] + text[k:]
    return text


@settings(max_examples=200, deadline=None)
@given(grammar_text())
def test_parser_matches_oracle_on_grammar_texts(text):
    assert_matches_oracle(text)


@settings(max_examples=200, deadline=None)
@given(mutated_text())
def test_parser_matches_oracle_on_malformed_texts(text):
    # An edit can grow an exponent past what the oracle's repeated
    # products finish quickly.
    assume(not re.search(r"\^\s*-?\d\d", text))
    assert_matches_oracle(text)


def _nest(levels, inner="x + 1"):
    return "(" * levels + inner + ")" * levels


@pytest.mark.parametrize("text", [
    "3v", "-inf", "-inf^0", "(x + 1v)^0", "(-inf)^0", "x^0 + -inf", "-0",
    "-0v*x", "2/4v", "2/4v*x^2 + 6/3", "y + -inf*y + x", "-inf*y + x",
    "x + x", "x*y + 2v*y^3 + (x + y)^2", " \t x ^ 2+ 3v *x+ 2 \n", "x^12",
    "(x + y + 1)^5", "(2v*x)^7", "x^4/2", "x + + 1/0", "1/0 + +", "x + + 3",
    "x^-1", "x^2v", "x^1/2", "(x + 1", "x + 1)", "", "   ", "z", "x y",
    "2 3", "x ^", "-", "-infx", "x + 1/00", "١٢*x",
    _nest(MAX_DEPTH), _nest(MAX_DEPTH + 1), _nest(MAX_DEPTH + 1, "1/0 +"),
    "x + " + _nest(MAX_DEPTH + 1, "1") + " + ", _nest(MAX_DEPTH, "y"),
    # Terms whose scalar and variable factors fold into one monomial.
    "2*3v*-1/2*x", "-inf^0*x", "x*-inf", "3^2*x", "x^0*y^0", "x*x^2*y^1/1",
    "(x+1)^0*2v", "(x + y)*3*x^2*(x + 1)",
    "-13/2v*x^3 + 13/2*x^5 + -8*x^6 + 6v*x^4 + -1*x^2 + -4v",
])
def test_parser_matches_oracle_on_edge_cases(text):
    assert_matches_oracle(text)


# Few magnitudes, so products tie and ghost often; ONE itself takes the
# core's shortcut for bare monomials.
_tied = st.one_of(st.just(ONE), st.builds(Element, st.integers(-2, 2).map(Fraction),
                                          st.booleans()))
_exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
_bipolys = st.dictionaries(_exps, _tied, max_size=4).map(BiPoly)


@settings(max_examples=300, deadline=None)
@given(_bipolys, st.integers(0, 8))
@example(parse_bipoly("x*y"), 2)
@example(parse_bipoly("x + y"), 2)
def test_power_by_squaring_equals_repeated_product(f, n):
    repeated = BiPoly.constant(ONE)
    for _ in range(n):
        repeated = repeated * f
    assert f ** n == repeated == _oracle_pow(f, n)
    for bad in (-1, float(n)):
        with pytest.raises(ValueError, match="nonnegative integer"):
            f ** bad


@settings(max_examples=200, deadline=None)
@given(_bipolys, _bipolys, _exps)
def test_sum_and_product_match_oracle(f, g, ij):
    mono = BiPoly.monomial(*ij)
    assert f + g == _oracle_add(f, g)
    assert f * g == _oracle_mul(f, g)
    assert f * mono == mono * f == _oracle_mul(f, mono)


def test_monomial_power_is_read_off():
    # The exponent is far past what repeated products could reach.
    f = parse_poly("(2v*x^3)^1000000000000")
    assert list(f.items()) == [(3000000000000, Element(Fraction(2000000000000), True))]
    assert parse_bipoly("(x*y^2)^7") == BiPoly.monomial(7, 14)
