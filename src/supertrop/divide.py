"""Division up to ghosts, with constructive witnesses.

A tangible quotient q witnesses that g divides f when f equals q*g plus a
ghost correction.  The check used throughout: s = f + q*g must be a ghost
polynomial whose ghost value agrees with that of f.  That holds exactly
when q*g never exceeds f in magnitude and f is ghost wherever it strictly
dominates q*g.

`divides_linear` makes the connection to roots constructive: a tangible
point a is a root of f if and only if such a witness exists for g = x + a,
and the witness is read off the factorization of f.
"""

from __future__ import annotations

from fractions import Fraction

from .element import Rational, as_fraction, tangible
from .factor import Factorization, expand, factor_min_ghosts, linear_factor
from .poly import Poly, e_equiv, is_ghost_poly, tangible_roots
from .record import Record


class DivisionWitness(Record):
    """Tangible quotient q together with the ghost sum f + q*g it produces."""

    __slots__ = ("q", "ghost_sum")

    q: Poly
    ghost_sum: Poly

    def __init__(self, q: Poly, ghost_sum: Poly):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ghost_sum", ghost_sum)


def verify_division(f: Poly, g: Poly, q: Poly) -> bool:
    """Check that the tangible polynomial q witnesses g | f up to ghosts."""
    if q.is_zero or not q.all_tangible():
        raise ValueError("witness must be a nonzero tangible polynomial")
    s = f + q * g
    return is_ghost_poly(s) and e_equiv(s.nu(), f.nu())


def _without(fact: Factorization, kind: str, index: int = 0) -> Factorization:
    # One copy of the chosen factor removed; the lead stays put.
    left, right = fact.left_ghost, fact.right_ghost
    linears, quads = list(fact.linears), list(fact.quadratics)
    if kind == "left":
        left = None
    elif kind == "right":
        right = None
    elif kind == "linear":
        a, m = linears[index]
        linears[index:index + 1] = [(a, m - 1)] if m > 1 else []
    elif kind == "quad":
        b, c, m = quads[index]
        quads[index:index + 1] = [(b, c, m - 1)] if m > 1 else []
    return Factorization(lead=fact.lead, power=fact.power, left_ghost=left,
                         right_ghost=right, linears=tuple(linears),
                         quadratics=tuple(quads))


def divides_linear(f: Poly, a: Rational) -> DivisionWitness | None:
    """Witness that x + a divides f, or None when a is not a root.

    The quotient replaces the factor of f whose root interval contains a:
    a matching linear or a ghost boundary factor contributes a scalar, a
    quadratic with c - b <= a <= b contributes x + (c - a).  Everything
    else joins the quotient with its layers forgotten.
    """
    if f.is_zero or f.degree == 0:
        raise ValueError("input must be nonconstant")
    a = as_fraction(a)
    if a not in tangible_roots(f):
        return None
    fact = factor_min_ghosts(f)

    def witness(q: Poly) -> DivisionWitness:
        # Products of tangible factors can tie coefficients into ghosts;
        # the quotient must be tangible, and its layers are immaterial to
        # the witness property, so flatten them.
        q = q.hat()
        return DivisionWitness(q=q, ghost_sum=f + q * linear_factor(a))

    if fact.lead.is_ghost:
        # Every tangible point is a root here.  Quotient: drop the nearest
        # corner from above (or the top corner, lowering the scalar), so
        # that q*(x + a) stays under f in magnitude everywhere.
        corners = [r for r, m in fact.linears for _ in range(m)]
        if not corners:
            # Ghost monomial: the slope mismatch leaves no tangible witness.
            return None
        above = [r for r in corners if r >= a]
        scale = Fraction(0)
        if above:
            corners.remove(min(above))
        else:
            scale = corners[-1] - a
            corners.pop()
        q = Poly.monomial(fact.power, tangible(fact.lead.mag + scale))
        for r in corners:
            q = q * linear_factor(r)
        return witness(q)

    for i, (r, _) in enumerate(fact.linears):
        if r == a:
            return witness(expand(_without(fact, "linear", i)).hat())
    for i, (b, c, _) in enumerate(fact.quadratics):
        if c - b <= a <= b:
            rest = expand(_without(fact, "quad", i)).hat()
            return witness(rest * linear_factor(c - a))
    if fact.right_ghost is not None and a <= fact.right_ghost:
        return witness(expand(_without(fact, "right")).hat())
    if fact.left_ghost is not None and a >= fact.left_ghost:
        rest = expand(_without(fact, "left")).hat()
        return witness(rest.scale(tangible(fact.left_ghost - a)))
    raise AssertionError(f"root {a} not covered by any factor of {f}")


def radical_member_check(a: Poly, k: int, b: Poly, q: Poly) -> bool:
    """Certificate check that some power of a supertropically divides b.

    True exactly when q witnesses that a^k divides b up to ghosts, which
    places a in the radical of any set containing b.
    """
    if k < 1:
        raise ValueError("exponent must be a positive integer")
    return verify_division(b, a ** k, q)
