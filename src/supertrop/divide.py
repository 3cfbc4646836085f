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
from .factor import factor_min_ghosts
from .intervals import NEG_INF, POS_INF
from .poly import Poly, e_equiv, is_ghost_poly, tangible_roots
from .record import Record


class DivisionWitness(Record):
    """Tangible quotient q together with the ghost sum f + q*g it produces."""

    __slots__ = ("q", "ghost_sum")

    q: Poly
    ghost_sum: Poly


def verify_division(f: Poly, g: Poly, q: Poly) -> bool:
    """Check that the tangible polynomial q witnesses g | f up to ghosts."""
    if q.is_zero or not q.all_tangible():
        raise ValueError("witness must be a nonzero tangible polynomial")
    s = f + q * g
    return is_ghost_poly(s) and e_equiv(s.nu(), f.nu())


def divides_linear(f: Poly, a: Rational) -> DivisionWitness | None:
    """Witness that x + a divides f, or None when a is not a root.

    The quotient replaces the first factor of f (in `Factorization.parts`
    order) whose root interval contains a: a matching linear or right
    ghost contributes One, a left ghost x^nu + b the scalar b - a, and a
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
        return DivisionWitness(q=q, ghost_sum=f + q * Poly.linear(a))

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
        lead = Poly.monomial(fact.power, tangible(fact.lead.mag + scale))
        return witness(Poly.product([lead, *map(Poly.linear, corners)]))

    parts = fact.parts()
    for k, (lo, hi, _, _) in enumerate(parts):
        if lo <= a <= hi:
            break
    else:
        raise AssertionError(f"root {a} not covered by any factor of {f}")
    # One copy of the factor found is replaced; the lead stays put.
    factors = [Poly.monomial(fact.power, fact.lead),
               *(p ** (m - (j == k)) for j, (_, _, m, p) in enumerate(parts))]
    if NEG_INF < lo < hi < POS_INF:
        factors.append(Poly.linear(lo + hi - a))  # quadratic: c - a
    elif hi == POS_INF:
        factors.append(Poly.constant(tangible(lo - a)))  # left ghost
    return witness(Poly.product(factors))


def radical_member_check(a: Poly, k: int, b: Poly, q: Poly) -> bool:
    """Certificate check that some power of a supertropically divides b.

    True exactly when q witnesses that a^k divides b up to ghosts, which
    places a in the radical of any set containing b.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"exponent must be a positive integer: {k!r}")
    return verify_division(b, a ** k, q)
