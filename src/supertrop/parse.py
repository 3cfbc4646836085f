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

The tokenizer is one `findall` of a regex that skips whitespace itself
and whose last alternative catches any other character.  It reads every
number into checked ints, so the whole text is checked before parsing
starts; token positions are found again, by the same regex, only for an
error.  Parsing is one pass of recursive descent over the tokens,
computing on the maps of the sparse core (`sparse`): a sum of terms is
one `terms_add`.  A term folds its scalar and variable factors, and
their powers, into one monomial as it reads them: exponent sums, one
magnitude as an int ratio, and one Element at the end.  Only
parenthesised factors stay maps, raised by `terms_pow` and multiplied
with the monomial by one `terms_mul`.  No polynomial object is built
per node, and the result is wrapped once, as a BiPoly, a Poly or an
Element.  The JSON readers are strict and name the offending term.
Rationals are read by `element`'s one reader.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .bipoly import BiPoly
from .element import Element, ONE, ZERO, _RATIONAL, _ratio, _read_rational
from .poly import Poly
from .sparse import Terms, terms_add, terms_mul, terms_pow


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


# Groups: the token, then a number's numerator, denominator and ghost mark.
_TOKEN_RE = re.compile(rf"\s*({_RATIONAL}(v)?|-inf\b|\S)")
_SYMBOLS = frozenset("+-*^()xy")


def _scan_end(text: str) -> int:
    # Scanning stops at the last token: past it, the leading `\s*` would
    # backtrack over the trailing whitespace once per character.
    return len(text.rstrip())


def _tokenize(text: str) -> list:
    """The tokens, then "end": a number as (numerator, denominator,
    ghost), -inf as None, any other token as its character."""
    tokens = _TOKEN_RE.findall(text, 0, _scan_end(text))
    for k, (tok, num, den, v) in enumerate(tokens):
        if num:
            try:
                ratio = _ratio(num, den)
            except ValueError:
                raise ParseError("number too long", _start(text, k)) from None
            if ratio is None:
                raise ParseError("malformed rational", _start(text, k))
            tokens[k] = (*ratio, v == "v")
        elif tok in _SYMBOLS:
            tokens[k] = tok
        elif tok == "-inf":
            tokens[k] = None
        else:
            raise ParseError(f"unexpected character {tok!r}", _start(text, k))
    tokens.append("end")
    return tokens


def _start(text: str, k: int) -> int:
    """The position of token k, the end of the text for "end"."""
    for m in _TOKEN_RE.finditer(text, 0, _scan_end(text)):
        if not k:
            return m.start(1)
        k -= 1
    return len(text)


def _kind(tok) -> str:
    # A token's name in messages.
    if type(tok) is tuple or tok is None:
        return "scalar"
    return "var" if tok == "x" or tok == "y" else tok


# Parentheses nest by recursion, two frames a level (`term` and `poly`);
# the cap keeps deep input a parse error well inside the interpreter's
# recursion limit.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent straight onto the maps of the sparse core."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.depth = 0

    def error(self, message: str, k: int) -> ParseError:
        return ParseError(message, _start(self.text, k))

    def expect(self, kind: str) -> None:
        tok = self.tokens[self.idx]
        if tok != kind:
            raise self.error(f"expected {kind!r}, found {_kind(tok)!r}",
                             self.idx)
        self.idx += 1

    def poly(self) -> Terms:
        terms = [self.term()]
        while self.tokens[self.idx] == "+":
            self.idx += 1
            terms.append(self.term())
        return terms_add(*terms)  # one pass, so long sums stay linear

    def term(self) -> Terms:
        tokens = self.tokens
        idx = self.idx
        # The monomial so far: exponents i, j, magnitude n/d, ghost, Zero.
        i = j = n = 0
        d = 1
        ghost = zero = False
        maps = []  # parenthesised factors, raised to their powers
        while True:
            factor = tokens[idx]
            if (type(factor) is tuple or factor is None or factor == "x"
                    or factor == "y"):
                idx += 1
            elif factor == "(":
                self.depth += 1
                if self.depth > MAX_DEPTH:
                    raise self.error("nesting too deep", idx)
                self.idx = idx + 1
                factor = self.poly()
                self.expect(")")
                self.depth -= 1
                idx = self.idx
            else:
                raise self.error("expected a scalar, variable or '(', found "
                                 f"{_kind(factor)!r}", idx)
            k = 1
            if tokens[idx] == "^":
                idx += 1
                exp = tokens[idx]
                if type(exp) is not tuple and exp is not None:
                    raise self.error(
                        f"expected 'scalar', found {_kind(exp)!r}", idx)
                if exp is None or exp[2] or exp[0] < 0 or exp[0] % exp[1]:
                    raise self.error("exponent must be a nonnegative integer",
                                     idx)
                k = exp[0] // exp[1]
                idx += 1
            if type(factor) is tuple:
                if k:
                    a, b, g = factor
                    n, d = n * b + a * k * d, d * b
                    ghost = ghost or g
            elif factor == "x":
                i += k
            elif factor == "y":
                j += k
            elif factor is None:
                zero = zero or k > 0  # Zero ** 0 is One
            else:
                maps.append(factor if k == 1 else terms_pow(factor, k, (0, 0)))
            if tokens[idx] != "*":
                break
            idx += 1
        self.idx = idx
        if zero:
            return {}
        c = (ONE if not n and not ghost
             else Element(Fraction(n) if d == 1 else Fraction(n, d), ghost))
        if not maps:
            return {(i, j): c}
        if i or j or c is not ONE:
            maps.append({(i, j): c})
        # One product, on one scale for all the maps that are not monomials.
        return maps[0] if len(maps) == 1 else terms_mul(*maps)


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
