"""Factorization of one-variable supertropical polynomials into irreducibles.

Up to a scalar lead and a power of x, every polynomial function splits into

* monic tangible linears  x + a          (root set {a}),
* irreducible quadratics  x^2 + b^nu x + c  with 2b > c  (root set [c-b, b]),
* at most one left ghost  x^nu + a       (root set [a, inf)),
* at most one right ghost x + a^nu       (root set (-inf, a]).

The factors are read off the canonical full form.  Splitting the coefficient
slots at the tangible ones cuts the polynomial into blocks whose interiors
are ghosts; each bounded block contributes the quadratic spanning its corner
range while every other corner of the block comes out as a tangible linear
(extracting those linears keeps the product intact and makes the tangible
part as large as possible, which is what pins the factorization down).  An
unbounded block keeps a single ghost boundary factor at its extreme corner.
A polynomial that is ghost everywhere falls outside that product shape; it
is written as a ghost scalar lead times a product of tangible linears.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .element import Element, ONE, ghost, tangible
from .intervals import NEG_INF, POS_INF, IntervalSet
from .poly import Poly, canonical_full, e_equiv, full_from_corners, tangible_roots
from .record import Record


def quadratic_factor(b: Fraction, c: Fraction) -> Poly:
    return Poly({2: ONE, 1: ghost(b), 0: tangible(c)})


def left_ghost_factor(a: Fraction) -> Poly:
    return Poly({1: ghost(0), 0: tangible(a)})


def right_ghost_factor(a: Fraction) -> Poly:
    return Poly({1: ONE, 0: ghost(a)})


class Factorization(Record):
    """Canonical factor data: lead * x^power * ghost boundaries * linears * quadratics.

    A value record (`record`) whose constructor rejects malformed data.
    """

    __slots__ = ("lead", "power", "left_ghost", "right_ghost", "linears",
                 "quadratics")

    lead: Element
    power: int
    left_ghost: Fraction | None
    right_ghost: Fraction | None
    linears: tuple[tuple[Fraction, int], ...]
    quadratics: tuple[tuple[Fraction, Fraction, int], ...]
    _defaults = {"power": 0, "left_ghost": None, "right_ghost": None,
                 "linears": (), "quadratics": ()}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.lead.is_zero:
            raise ValueError("factorization of the zero polynomial")
        if self.power < 0:
            raise ValueError("negative power of x")
        roots = [a for a, _ in self.linears]
        if roots != sorted(roots) or len(set(roots)) != len(roots):
            raise ValueError("linear factors must be sorted by distinct root")
        if any(m < 1 for _, m in self.linears):
            raise ValueError("linear multiplicities must be positive")
        for b, c, m in self.quadratics:
            if m < 1:
                raise ValueError("quadratic multiplicities must be positive")
            if c - b >= b:
                raise ValueError(f"degenerate quadratic (b={b}, c={c})")

    def parts(self) -> list[tuple]:
        """Each non-scalar factor as (lo, hi, multiplicity, polynomial).

        [lo, hi] is the factor's root interval.  Linears come first, then
        quadratics, the right ghost and the left ghost.
        """
        out = [(a, a, m, Poly.linear(a)) for a, m in self.linears]
        out += [(c - b, b, m, quadratic_factor(b, c))
                for b, c, m in self.quadratics]
        right, left = self.right_ghost, self.left_ghost
        if right is not None:
            out.append((NEG_INF, right, 1, right_ghost_factor(right)))
        if left is not None:
            out.append((left, POS_INF, 1, left_ghost_factor(left)))
        return out

    def factor_intervals(self) -> list[tuple]:
        """Root interval of each non-scalar factor, with multiplicity."""
        return [(lo, hi, m) for lo, hi, m, _ in self.parts()]

    def __str__(self) -> str:
        parts: list[str] = []
        if self.lead != ONE:
            parts.append(str(self.lead))
        for b, c, m in self.quadratics:
            text = f"(x^2 + {ghost(b)}*x + {tangible(c)})"
            parts.append(text if m == 1 else f"{text}^{m}")
        for a, m in self.linears:
            text = f"(x + {tangible(a)})"
            parts.append(text if m == 1 else f"{text}^{m}")
        if self.left_ghost is not None:
            parts.append(f"(x^v + {tangible(self.left_ghost)})")
        if self.right_ghost is not None:
            parts.append(f"(x + {ghost(self.right_ghost)})")
        if self.power == 1:
            parts.append("x")
        elif self.power > 1:
            parts.append(f"x^{self.power}")
        return "*".join(parts) if parts else str(self.lead)


def _grouped(corners: list[Fraction]) -> tuple[tuple[Fraction, int], ...]:
    counts = Counter(corners)
    return tuple(sorted(counts.items()))


def factor_min_ghosts(f: Poly) -> Factorization:
    """Factor f with as few ghost factors as the function admits."""
    if f.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    full = canonical_full(f)
    corners = list(full.corner_roots())
    lead_mag = full.coeffs[full.hi].mag

    # The fields go in positionally, in slot order: the shared constructor
    # binds keywords more slowly, and this is on the factoring path.
    if full.all_ghost:
        return Factorization(Element(lead_mag, True), full.shift, None, None,
                             _grouped(corners), ())

    tangible_slots = [i for i, c in enumerate(full.coeffs) if c.is_tangible]
    linears: list[Fraction] = []
    quads: list[tuple[Fraction, Fraction, int]] = []
    left: Fraction | None = None
    right: Fraction | None = None

    first, last = tangible_slots[0], tangible_slots[-1]
    if first > 0:
        # Constant region is ghost: roots reach -inf, boundary at the
        # largest corner of the low block.
        block = corners[0:first]
        right = block[-1]
        linears.extend(block[:-1])
    for s, t in zip(tangible_slots, tangible_slots[1:]):
        block = corners[s:t]
        if block[0] == block[-1]:
            linears.extend(block)
        else:
            quads.append((block[-1], block[0] + block[-1], 1))
            linears.extend(block[1:-1])
    if last < full.hi:
        # Leading region is ghost: roots reach +inf from the smallest
        # corner of the top block.
        block = corners[last:]
        left = block[0]
        linears.extend(block[1:])

    return Factorization(Element(lead_mag, False), full.shift, left, right,
                         _grouped(linears),
                         tuple(sorted(quads, key=lambda q: (q[1] - q[0], q[0]))))


def expand(fact: Factorization) -> Poly:
    """Multiply the factorization back out."""
    return Poly.product([Poly.monomial(fact.power, fact.lead),
                         *(p ** m for _, _, m, p in fact.parts())])


def split_tan_intan(f: Poly) -> tuple[Poly, Poly]:
    """Monic tangible and intangible components of f.

    The tangible component collects the power of x and all tangible linear
    factors (the factors whose root interval is a point); the intangible
    component collects the ghost boundary factors and the irreducible
    quadratics.  Together with the lead they multiply back to f.
    """
    fact = factor_min_ghosts(f)
    tan, intan = [Poly.monomial(fact.power)], [Poly.constant(ONE)]
    for lo, hi, m, p in fact.parts():
        (tan if lo == hi else intan).append(p ** m)
    return Poly.product(tan), Poly.product(intan)


def e_divides(g: Poly, f: Poly) -> bool:
    """Does f = g * h hold as functions for some polynomial h?

    Decided on canonical data: the corner-root multiset of g must embed into
    that of f and the power of x must not exceed f's.  The candidate
    cofactor takes the leftover corners and ghosts every slot whose dominance
    region stays inside f's root set (the largest root set a cofactor may
    have); the decision is the exact function-equality check of g times that
    cofactor against f.
    """
    if g.is_zero:
        return f.is_zero
    if f.is_zero:
        return True
    gf = canonical_full(g)
    ff = canonical_full(f)
    if gf.shift > ff.shift:
        return False
    g_corners = Counter(gf.corner_roots())
    f_corners = Counter(ff.corner_roots())
    if g_corners - f_corners:
        return False
    leftover = sorted((f_corners - g_corners).elements())
    f_roots = tangible_roots(f).intervals

    # Cofactor slot i dominates [bounds[i], bounds[i+1]] and is ghost when
    # f's roots cover that span.  With no leftover corner the span is the
    # whole line, covered exactly when f is all ghost: a tangible slot of a
    # canonical form is a strict hull vertex, so it leaves an open gap in
    # the root set.
    bounds = [NEG_INF, *leftover, POS_INF]
    flags = [f_roots.contains_set(IntervalSet.of([span]))
             for span in zip(bounds, bounds[1:])]
    lead_mag = ff.coeffs[ff.hi].mag - gf.coeffs[gf.hi].mag
    h = full_from_corners(leftover, flags, lead_mag, shift=ff.shift - gf.shift)
    return e_equiv(g * h, f)
