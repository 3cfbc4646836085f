"""Division up to ghosts, with constructive witnesses.

A tangible quotient q witnesses that g divides f when s = f + q*g is a
ghost polynomial with the magnitudes of f: q*g never exceeds f, and f is
ghost wherever it strictly dominates q*g.

The quotient to try is the greatest tangible q with q*g <= f as functions,
by max-plus residuation (Baccelli, Cohen, Olsder and Quadrat,
*Synchronization and Linearity*, ch. 4).  A term c*x^k lies under f exactly
when c <= F_k, the magnitude at slot k of f's canonical full form, so
q_s = min over the terms G_j*x^j of g of F_{s+j} - G_j.  Every witness q'
lies under q termwise, and where f strictly dominates q*g it dominates
q'*g, so q witnesses g | f whenever any tangible quotient does, and
`divides_linear` finds a witness for x + a at every tangible root a of a
non-monomial f.
"""

from __future__ import annotations

from .element import Rational, as_fraction
from .poly import (Poly, _same_image, canonical_full, is_ghost_poly,
                   tangible_roots)
from .record import Record
from .sparse import _unscaled, scaled


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
    if f.is_zero:
        return s.is_zero
    # nu keeps the hull, so s.nu() and f.nu() are e-equivalent exactly when
    # the canonical forms of s and f have one shift and one magnitude per
    # slot.  s holds every term of f, so two forms of one length have one
    # shift.
    return is_ghost_poly(s) and _same_image(s, f, layers=False)


def _residual(f: Poly, g: Poly) -> Poly | None:
    """The greatest tangible q with q*g <= f, or None when no term fits:
    q_s for s from max(0, ldeg f - ldeg g) to deg f - deg g, O(deg f * |g|)
    int steps on one `scaled` view of both maps, one Fraction per term."""
    full = canonical_full(f)
    lo, hi = max(0, full.shift - g.ldeg), full.degree - g.degree
    if lo > hi:
        return None
    den, (fv, gv) = scaled([full.to_poly()._coeffs, g._coeffs])
    return Poly._of(_unscaled(
        {s: (min(fv[s + j][0] - m for j, (m, _) in gv.items()), False)
         for s in range(lo, hi + 1)}, den, None))


def divides_linear(f: Poly, a: Rational) -> DivisionWitness | None:
    """Witness that x + a divides f, or None when there is none.

    The root test is the cheap reject; a monomial (a ghost one has every
    root) has no quotient.  Otherwise q = `_residual(f, x + a)`, q_s =
    min(F_s - a, F_{s+1}) in O(deg f), and as q*(x + a) <= f, q is a
    witness exactly when the ghost sum is ghost.
    """
    if f.is_zero or f.degree == 0:
        raise ValueError("input must be nonconstant")
    a = as_fraction(a)
    if f.is_monomial or a not in tangible_roots(f):
        return None
    g = Poly.linear(a)
    q = _residual(f, g)
    s = f + q * g
    return DivisionWitness(q, s) if is_ghost_poly(s) else None


def radical_member_check(a: Poly, k: int, b: Poly, q: Poly) -> bool:
    """Certificate check that some power of a supertropically divides b.

    True exactly when q witnesses that a^k divides b up to ghosts, which
    places a in the radical of any set containing b.
    """
    if type(k) is not int or k < 1:
        raise ValueError(f"exponent must be a positive integer: {k!r}")
    return verify_division(b, a ** k, q)
