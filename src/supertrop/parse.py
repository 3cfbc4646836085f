"""Text and JSON forms of elements and polynomials.

Grammar, with no implicit multiplication:

    poly     := term ('+' term)*
    term     := factor ('*' factor)*
    factor   := atom ('^' nat)?
    atom     := scalar | 'x' | 'y' | '(' poly ')'
    scalar   := '-inf' | rational 'v'?
    rational := '-'? digits ('/' digits)?

A trailing 'v' marks a ghost scalar, so "3v" is the ghost at magnitude 3.
The printed forms of Element, Poly and BiPoly parse back to equal values.

Parsing is one pass of recursive descent over the tokens, computing on
the sparse core maps of `bipoly` (`terms_add`, `terms_mul`, `terms_pow`):
no polynomial object is built per node, and the result is wrapped once,
as a BiPoly, a Poly or an Element.  The JSON readers are strict and
name the offending term.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bipoly import BiPoly, Terms, terms_add, terms_mul, terms_pow
from .element import Element, ONE, ZERO
from .poly import Poly


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


_RATIONAL = r"(?P<num>-?\d+)(?:/(?P<den>\d+))?"

_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<neginf>-inf\b)
      | (?P<number>{_RATIONAL}(?P<ghost>v)?)
      | (?P<var>[xy])
      | (?P<op>[-+*^()])
    """,
    re.VERBOSE,
)


def _rational(num: str, den: str | None) -> Fraction | None:
    """The regex groups of a rational as a Fraction; None for a zero denominator.

    Raises ValueError for a number past the interpreter's limit on digits
    (`sys.get_int_max_str_digits`).
    """
    n = int(num)
    if den is None:
        return Fraction(n)
    d = int(den)
    return Fraction(n, d) if d else None


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "number":
            num, den, ghost = m.group("num", "den", "ghost")
            try:
                mag = _rational(num, den)
            except ValueError:
                raise ParseError("number too long", pos) from None
            if mag is None:
                raise ParseError("malformed rational", pos)
            tokens.append(("scalar", Element(mag, ghost is not None), pos))
        elif kind == "neginf":
            tokens.append(("scalar", ZERO, pos))
        elif kind == "var":
            tokens.append(("var", m.group("var"), pos))
        elif kind == "op":
            tokens.append((m.group("op"), m.group("op"), pos))
        pos = m.end()
    tokens.append(("end", None, pos))
    return tokens


# Parentheses nest by recursion, four frames a level; the cap keeps deep
# input a parse error well inside the interpreter's recursion limit.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent straight onto the sparse core maps of `bipoly`."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0

    def take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str) -> tuple[str, object, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def poly(self) -> Terms:
        terms = [self.term()]
        while self.tokens[self.idx][0] == "+":
            self.idx += 1
            terms.append(self.term())
        return terms_add(*terms)  # one pass, so long sums stay linear

    def term(self) -> Terms:
        out = self.factor()
        while self.tokens[self.idx][0] == "*":
            self.idx += 1
            out = terms_mul(out, self.factor())
        return out

    def factor(self) -> Terms:
        base = self.atom()
        if self.tokens[self.idx][0] != "^":
            return base
        self.idx += 1
        kind, value, pos = self.expect("scalar")
        if (value.is_zero or value.is_ghost or value.mag.denominator != 1
                or value.mag < 0):
            raise ParseError("exponent must be a nonnegative integer", pos)
        return terms_pow(base, int(value.mag))

    def atom(self) -> Terms:
        kind, value, pos = self.take()
        if kind == "scalar":
            return {} if value.is_zero else {(0, 0): value}
        if kind == "var":
            return {(1, 0): ONE} if value == "x" else {(0, 1): ONE}
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError("nesting too deep", pos)
            out = self.poly()
            self.expect(")")
            self.depth -= 1
            return out
        raise ParseError(f"expected a scalar, variable or '(', found {kind!r}", pos)


def _parse(text: str) -> Terms:
    parser = _Parser(text)
    out = parser.poly()
    parser.expect("end")
    return out


def parse_bipoly(text: str) -> BiPoly:
    return BiPoly._of(_parse(text))


def parse_poly(text: str) -> Poly:
    terms = _parse(text)
    if any(j for _, j in terms):
        raise ParseError("'y' is not allowed in a one-variable polynomial", 0)
    return Poly({i: c for (i, _), c in sorted(terms.items())})


def parse_element(text: str) -> Element:
    terms = _parse(text)
    if any(key != (0, 0) for key in terms):
        raise ParseError("expected a scalar", 0)
    return terms.get((0, 0), ZERO)


def _term_json(c: Element) -> dict:
    return {"value": "-inf" if c.is_zero else str(c.mag),
            "layer": "ghost" if c.is_ghost else "tangible"}


def poly_to_json(f: Poly) -> dict:
    return {"vars": 1,
            "terms": [{"i": i, **_term_json(c)} for i, c in f.items()]}


def bipoly_to_json(f: BiPoly) -> dict:
    return {"vars": 2,
            "terms": [{"i": i, "j": j, **_term_json(c)}
                      for (i, j), c in f.items()]}


_RATIONAL_RE = re.compile(_RATIONAL)


def _term_element(term: dict, k: int) -> Element:
    value, layer = term["value"], term["layer"]
    if layer not in ("tangible", "ghost"):
        raise ValueError(f"term {k}: layer must be 'tangible' or 'ghost'")
    if value == "-inf":
        return ZERO
    m = _RATIONAL_RE.fullmatch(value) if isinstance(value, str) else None
    try:
        mag = _rational(m.group("num"), m.group("den")) if m else None
    except ValueError:
        raise ValueError(f"term {k}: number too long") from None
    if mag is None:
        raise ValueError(f"term {k}: value must be '-inf' or a rational like '-5/2'")
    return Element(mag, layer == "ghost")


def _vars(data: dict) -> int | None:
    vars_ = data.get("vars") if isinstance(data, dict) else None
    return vars_ if type(vars_) is int else None


def _key_problem(term, keys: tuple[str, ...]) -> str:
    if not isinstance(term, dict):
        return "expected an object"
    for key in keys:
        if key not in term:
            return f"missing key {key!r}"
    return f"unknown key {next(key for key in term if key not in keys)!r}"


def _terms_from_json(data: dict, names: tuple[str, ...]) -> dict[tuple, Element]:
    """Exponent tuple -> coefficient of a JSON term list, checked strictly."""
    terms = data.get("terms")
    if not isinstance(terms, list):
        raise ValueError("expected a 'terms' list")
    keys = (*names, "value", "layer")
    key_set = set(keys)
    out: dict[tuple, Element] = {}
    for k, term in enumerate(terms):
        if not isinstance(term, dict) or term.keys() != key_set:
            raise ValueError(f"term {k}: {_key_problem(term, keys)}")
        exps = tuple([term[name] for name in names])
        for e in exps:
            if type(e) is not int or e < 0:
                raise ValueError(f"term {k}: exponents must be nonnegative integers")
        if exps in out:
            raise ValueError(f"term {k}: repeated exponent")
        out[exps] = _term_element(term, k)
    return out


def poly_from_json(data: dict) -> Poly:
    if _vars(data) != 1:
        raise ValueError("expected a one-variable polynomial")
    return Poly({i: c for (i,), c in _terms_from_json(data, ("i",)).items()})


def bipoly_from_json(data: dict) -> BiPoly:
    """Reads two-variable data, and one-variable data as a polynomial in x."""
    vars_ = _vars(data)
    if vars_ == 1:
        return BiPoly.from_poly(poly_from_json(data))
    if vars_ != 2:
        raise ValueError("expected 'vars' of 1 or 2")
    return BiPoly(_terms_from_json(data, ("i", "j")))
