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
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bipoly import BiPoly
from .element import Element, ZERO
from .poly import Poly


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<neginf>-inf\b)
      | (?P<number>-?\d+(?:/\d+)?(?P<ghost>v)?)
      | (?P<var>[xy])
      | (?P<op>[-+*^()])
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    tokens: list[tuple[str, object, int]] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup if m.lastgroup != "ghost" else "number"
        if kind == "number":
            try:
                value = Element.parse(m.group("number"))
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


# Parentheses nest by recursion, four frames a level; the cap keeps deep
# input a parse error well inside the interpreter's recursion limit.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0

    def peek(self) -> tuple[str, object, int]:
        return self.tokens[self.idx]

    def take(self) -> tuple[str, object, int]:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def expect(self, kind: str) -> tuple[str, object, int]:
        tok = self.take()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def poly(self) -> BiPoly:
        out = self.term()
        while self.peek()[0] == "+":
            self.take()
            out = out + self.term()
        return out

    def term(self) -> BiPoly:
        out = self.factor()
        while self.peek()[0] == "*":
            self.take()
            out = out * self.factor()
        return out

    def factor(self) -> BiPoly:
        base = self.atom()
        if self.peek()[0] == "^":
            self.take()
            kind, value, pos = self.expect("scalar")
            if (not isinstance(value, Element) or value.is_zero
                    or value.is_ghost or value.mag.denominator != 1
                    or value.mag < 0):
                raise ParseError("exponent must be a nonnegative integer", pos)
            return base ** int(value.mag)
        return base

    def atom(self) -> BiPoly:
        kind, value, pos = self.take()
        if kind == "scalar":
            return BiPoly.constant(value)
        if kind == "var":
            return BiPoly.monomial(1, 0) if value == "x" else BiPoly.monomial(0, 1)
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ParseError("nesting too deep", pos)
            out = self.poly()
            self.expect(")")
            self.depth -= 1
            return out
        raise ParseError(f"expected a scalar, variable or '(', found {kind!r}", pos)


def parse_bipoly(text: str) -> BiPoly:
    parser = _Parser(text)
    out = parser.poly()
    parser.expect("end")
    return out


def parse_poly(text: str) -> Poly:
    bi = parse_bipoly(text)
    if not bi.is_zero and bi.deg_y > 0:
        raise ParseError("'y' is not allowed in a one-variable polynomial", 0)
    return Poly({i: c for (i, _), c in bi.items()})


def parse_element(text: str) -> Element:
    bi = parse_bipoly(text)
    if not bi.is_zero and bi.total_degree > 0:
        raise ParseError("expected a scalar", 0)
    return bi.coeff(0, 0)


def _term_json(c: Element) -> dict:
    return {"value": "-inf" if c.is_zero else str(c.mag),
            "layer": "ghost" if c.is_ghost else "tangible"}


def _term_element(term: dict) -> Element:
    value = term["value"]
    if value == "-inf":
        return ZERO
    return Element(Fraction(value), term.get("layer") == "ghost")


def poly_to_json(f: Poly) -> dict:
    return {"vars": 1,
            "terms": [{"i": i, **_term_json(c)} for i, c in f.items()]}


def bipoly_to_json(f: BiPoly) -> dict:
    return {"vars": 2,
            "terms": [{"i": i, "j": j, **_term_json(c)}
                      for (i, j), c in f.items()]}


def poly_from_json(data: dict) -> Poly:
    if data.get("vars") != 1:
        raise ValueError("expected a one-variable polynomial")
    return Poly({int(t["i"]): _term_element(t) for t in data["terms"]})


def bipoly_from_json(data: dict) -> BiPoly:
    if data.get("vars") not in (1, 2):
        raise ValueError("expected 'vars' of 1 or 2")
    return BiPoly({(int(t["i"]), int(t.get("j", 0))): _term_element(t)
                   for t in data["terms"]})
