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

The tokenizer is one regex scan whose last alternative catches any
character the grammar does not know.  Parsing is one pass of recursive
descent over the tokens, computing on the maps of the sparse core
(`sparse`): a sum of terms is one `terms_add`, a product of factors one
n-ary `terms_mul` on a common integer scale, and a power `terms_pow`.  No
polynomial object is built per node, and the result is wrapped once, as
a BiPoly, a Poly or an Element.  The JSON readers are strict and name
the offending term.  Rationals are read by `element`'s one reader.
"""

from __future__ import annotations

import re

from .bipoly import BiPoly
from .element import (Element, ONE, ZERO, _RATIONAL, _rational,
                      _read_rational)
from .poly import Poly
from .sparse import Terms, terms_add, terms_mul, terms_pow


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


_TOKEN_RE = re.compile(
    rf"""(?P<ws>\s+)
      | (?P<neginf>-inf\b)
      | (?P<number>{_RATIONAL}(?P<ghost>v)?)
      | (?P<var>[xy])
      | (?P<op>[-+*^()])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _tokenize(text: str) -> list[tuple[str, object, int]]:
    # One pass: the last alternative takes any character the others miss.
    tokens: list[tuple[str, object, int]] = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            continue
        pos = m.start()
        if kind == "number":
            num, den, ghost = m.group("num", "den", "ghost")
            try:
                mag = _rational(num, den)
            except ValueError:
                raise ParseError("number too long", pos) from None
            if mag is None:
                raise ParseError("malformed rational", pos)
            append(("scalar", Element(mag, ghost is not None), pos))
        elif kind == "op":
            op = m.group()
            append((op, op, pos))
        elif kind == "var":
            append(("var", m.group(), pos))
        elif kind == "neginf":
            append(("scalar", ZERO, pos))
        else:
            raise ParseError(f"unexpected character {m.group()!r}", pos)
    append(("end", None, len(text)))
    return tokens


# Parentheses nest by recursion, four frames a level; the cap keeps deep
# input a parse error well inside the interpreter's recursion limit.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent straight onto the maps of the sparse core."""

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
        factors = [self.factor()]
        while self.tokens[self.idx][0] == "*":
            self.idx += 1
            factors.append(self.factor())
        # One product, on one scale for all its factors.
        return factors[0] if len(factors) == 1 else terms_mul(*factors)

    def factor(self) -> Terms:
        base = self.atom()
        if self.tokens[self.idx][0] != "^":
            return base
        self.idx += 1
        kind, value, pos = self.expect("scalar")
        if (value.is_zero or value.is_ghost or value.mag.denominator != 1
                or value.mag < 0):
            raise ParseError("exponent must be a nonnegative integer", pos)
        return terms_pow(base, int(value.mag), (0, 0))

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
    return Poly._of({i: c for (i, _), c in sorted(terms.items())})


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
            "terms": [{"i": i, **_term_json(c)}
                      for i, c in sorted(f.items())]}


def bipoly_to_json(f: BiPoly) -> dict:
    return {"vars": 2,
            "terms": [{"i": i, "j": j, **_term_json(c)}
                      for (i, j), c in f.items()]}


def _term_element(term: dict, k: int) -> Element:
    value, layer = term["value"], term["layer"]
    if layer not in ("tangible", "ghost"):
        raise ValueError(f"term {k}: layer must be 'tangible' or 'ghost'")
    if value == "-inf":
        return ZERO
    try:
        mag = _read_rational(value)
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
