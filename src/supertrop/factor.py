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


def linear_factor(a: Fraction) -> Poly:
    return Poly({1: ONE, 0: tangible(a)})


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

    def __init__(self, lead: Element, power: int = 0,
                 left_ghost: Fraction | None = None,
                 right_ghost: Fraction | None = None,
                 linears: tuple[tuple[Fraction, int], ...] = (),
                 quadratics: tuple[tuple[Fraction, Fraction, int], ...] = ()):
        if lead.is_zero:
            raise ValueError("factorization of the zero polynomial")
        if power < 0:
            raise ValueError("negative power of x")
        roots = [a for a, _ in linears]
        if roots != sorted(roots) or len(set(roots)) != len(roots):
            raise ValueError("linear factors must be sorted by distinct root")
        if any(m < 1 for _, m in linears):
            raise ValueError("linear multiplicities must be positive")
        for b, c, m in quadratics:
            if m < 1:
                raise ValueError("quadratic multiplicities must be positive")
            if c - b >= b:
                raise ValueError(f"degenerate quadratic (b={b}, c={c})")
        object.__setattr__(self, "lead", lead)
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "left_ghost", left_ghost)
        object.__setattr__(self, "right_ghost", right_ghost)
        object.__setattr__(self, "linears", linears)
        object.__setattr__(self, "quadratics", quadratics)

    def factor_intervals(self) -> list[tuple]:
        """Root interval of each non-scalar factor, with multiplicity."""
        out: list[tuple] = []
        if self.left_ghost is not None:
            out.append((self.left_ghost, POS_INF, 1))
        if self.right_ghost is not None:
            out.append((NEG_INF, self.right_ghost, 1))
        for a, m in self.linears:
            out.append((a, a, m))
        for b, c, m in self.quadratics:
            out.append((c - b, b, m))
        return out

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

    if full.all_ghost:
        return Factorization(lead=Element(lead_mag, True), power=full.shift,
                             linears=_grouped(corners))

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

    return Factorization(lead=Element(lead_mag, False), power=full.shift,
                         left_ghost=left, right_ghost=right,
                         linears=_grouped(linears),
                         quadratics=tuple(sorted(quads, key=lambda q: (q[1] - q[0], q[0]))))


def expand(fact: Factorization) -> Poly:
    """Multiply the factorization back out."""
    result = Poly.monomial(fact.power, fact.lead)
    if fact.left_ghost is not None:
        result = result * left_ghost_factor(fact.left_ghost)
    if fact.right_ghost is not None:
        result = result * right_ghost_factor(fact.right_ghost)
    for a, m in fact.linears:
        result = result * linear_factor(a) ** m
    for b, c, m in fact.quadratics:
        result = result * quadratic_factor(b, c) ** m
    return result


def split_tan_intan(f: Poly) -> tuple[Poly, Poly]:
    """Monic tangible and intangible components of f.

    The tangible component collects the power of x and all tangible linear
    factors; the intangible component collects the ghost boundary factors
    and the irreducible quadratics.  Together with the lead they multiply
    back to f.
    """
    fact = factor_min_ghosts(f)
    tan = Poly.monomial(fact.power)
    for a, m in fact.linears:
        tan = tan * linear_factor(a) ** m
    intan = Poly.constant(ONE)
    if fact.left_ghost is not None:
        intan = intan * left_ghost_factor(fact.left_ghost)
    if fact.right_ghost is not None:
        intan = intan * right_ghost_factor(fact.right_ghost)
    for b, c, m in fact.quadratics:
        intan = intan * quadratic_factor(b, c) ** m
    return tan, intan


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

    t = len(leftover)
    flags = [False] * (t + 1)
    if t == 0:
        flags[0] = ff.all_ghost
    else:
        flags[0] = f_roots.contains_set(IntervalSet.of([(NEG_INF, leftover[0])]))
        flags[t] = f_roots.contains_set(IntervalSet.of([(leftover[-1], POS_INF)]))
        for i in range(1, t):
            flags[i] = f_roots.contains_set(
                IntervalSet.of([(leftover[i - 1], leftover[i])]))
    lead_mag = ff.coeffs[ff.hi].mag - gf.coeffs[gf.hi].mag
    h = full_from_corners(leftover, flags, lead_mag, shift=ff.shift - gf.shift)
    return e_equiv(g * h, f)
