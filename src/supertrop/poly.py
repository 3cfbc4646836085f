"""One-variable polynomials over the supertropical semifield.

A Poly is a sparse coefficient map.  Because the ground arithmetic is
max-plus, a polynomial function is piecewise linear and convex, and many
different coefficient maps define the same function (e-equivalence).  The
canonical representative of a function is the full form: after factoring out
the lowest power of the variable, every slot between 0 and the top degree is
filled in along the upper concave hull of the coefficient magnitudes, hull
vertices keep their original coefficient, and every other slot carries a
ghost of the hull magnitude.  Canonical forms are what the root, graph, and
factorization machinery consumes.

Corner roots drive everything: for a full polynomial the i-th corner root is
the magnitude difference coeff[i-1] - coeff[i], the sequence is nondecreasing,
and the tangible root locus is the union of the corner points together with
the closed dominance regions of ghost coefficients.  The bottom element -inf
is a root exactly when evaluation at it lands in the ghost ideal, i.e. the
variable divides the polynomial or the constant term is a ghost.

A Poly is a `sparse.SparsePoly` keyed by degree: its value protocol,
sums, products and powers are the core's; products and powers run on
magnitudes scaled to Python ints, and a power squares.

The canonical kernels avoid Fraction arithmetic too: the hull is taken on
the magnitudes as `sparse.scaled` ints, vertex slots keep their Element,
and each ghost slot costs one Fraction.  The same pass keeps the hull's
ints, from which the form's integer image, every slot on one scale, is
built when first asked for: the resultant's slope merge reads it in place
of the Elements, and the root locus is swept on it in one left-to-right pass
over the corners, with one Fraction per endpoint.

The answers built here (FullPoly, PiecewiseLinear and the ghost-sum
verdicts CommonRoot, HalfTangible, NotGhostSum) are value records
(`record`): slotted, immutable, compared and hashed by their fields.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm

from .element import Element, ONE, ZERO, Rational, as_fraction, tangible
from .intervals import NEG_INF, POS_INF, IntervalSet, RootSet
from .record import Record
from .sparse import SparsePoly, scaled, terms_mul


class Poly(SparsePoly):
    """Sparse supertropical polynomial in one variable, keyed by degree.

    Addition is coefficientwise, multiplication is the max-plus
    convolution; there is no subtraction.
    """

    # The canonical form, once taken; its hull on scaled ints until the
    # form's integer image is built from it (`_image_of`).
    __slots__ = ("_full", "_hull", "_image")

    # -- constructors --------------------------------------------------

    @staticmethod
    def monomial(deg: int, coeff: Element = ONE) -> "Poly":
        return Poly({deg: coeff})

    @staticmethod
    def linear(root: Rational) -> "Poly":
        """The monic tangible linear x + root."""
        return Poly({1: ONE, 0: tangible(root)})

    # -- basic queries --------------------------------------------------

    @property
    def degree(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return max(self._coeffs)

    @property
    def ldeg(self) -> int:
        """Degree of the lowest-order monomial."""
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degree")
        return min(self._coeffs)

    @property
    def is_monomial(self) -> bool:
        return len(self._coeffs) == 1

    def coeff(self, deg: int) -> Element:
        return self._coeffs.get(deg, ZERO)

    def items(self) -> Iterable[tuple[int, Element]]:
        return self._coeffs.items()

    def coeff_vector(self) -> list[Element]:
        """Dense coefficient list from degree 0 up to the top degree."""
        return [self.coeff(i) for i in range(self.degree + 1)]

    def all_tangible(self) -> bool:
        return all(c.is_tangible for c in self._coeffs.values())

    def is_full(self) -> bool:
        """Gap-free from the constant up, with nondecreasing corner roots."""
        if self.is_zero:
            return False
        m = self.degree
        if set(self._coeffs) != set(range(m + 1)):
            return False
        corners = _corners(self.coeff_vector())
        return all(a <= b for a, b in zip(corners, corners[1:]))

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def product(factors: Iterable["Poly"]) -> "Poly":
        """The product of one or more factors, left to right, on one scale."""
        return Poly._of(terms_mul(*[f._coeffs for f in factors]))

    def scale(self, c: Element) -> "Poly":
        return Poly({deg: coeff * c for deg, coeff in self._coeffs.items()})

    def evaluate(self, a: Element) -> Element:
        total = ZERO
        for deg, c in self._coeffs.items():
            total = total + c * a ** deg
        return total

    def nu(self) -> "Poly":
        return Poly({deg: c.nu() for deg, c in self._coeffs.items()})


# -- canonical full form ----------------------------------------------------


def _corners(coeffs: Sequence[Element]) -> list[Fraction]:
    """Corner roots of a full coefficient vector, constant first: the
    magnitude differences coeffs[i-1] - coeffs[i]."""
    mags = [c.mag for c in coeffs]
    return [a - b for a, b in zip(mags, mags[1:])]


class FullPoly(Record):
    """Canonical full form: shift records the extracted power of x.

    coeffs runs over slots 0..hi of the shifted polynomial with no Zero
    entries; vertex[i] marks the slots whose coefficient survives from the
    input (upper-hull vertices), every other slot being a ghost at the hull
    magnitude.
    """

    __slots__ = ("shift", "coeffs", "vertex")

    shift: int
    coeffs: tuple[Element, ...]
    vertex: tuple[bool, ...]

    @property
    def hi(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return self.shift + self.hi

    @property
    def all_ghost(self) -> bool:
        return all(c.is_ghost for c in self.coeffs)

    def corner_roots(self) -> tuple[Fraction, ...]:
        return tuple(_corners(self.coeffs))

    def to_poly(self) -> Poly:
        return Poly({self.shift + i: c for i, c in enumerate(self.coeffs)})

    def __str__(self) -> str:
        return str(self.to_poly())


def _upper_hull(points: list[tuple]) -> list[tuple]:
    """Strict vertices of the upper concave hull; collinear points dropped.

    Points are tuples (x, y, ...) sorted by increasing x; any further
    items ride along.
    """
    stack: list[tuple] = []
    for p in points:
        while len(stack) >= 2:
            o, a = stack[-2], stack[-1]
            cross = (a[0] - o[0]) * (p[1] - o[1]) - (a[1] - o[1]) * (p[0] - o[0])
            if cross >= 0:
                stack.pop()
            else:
                break
        stack.append(p)
    return stack


def canonical_full(f: Poly) -> FullPoly:
    """Canonical representative of f's function class.

    The lowest power of x is factored out, the remaining support is closed
    under the upper concave hull of (degree, magnitude), hull vertices keep
    their original coefficient, and all other slots become ghosts of the hull
    magnitude.  Idempotent, and equal canonical forms characterize equality
    of polynomial functions.  A Poly never changes, so it keeps its form:
    the hull is taken at most once per object.

    The hull is taken on the `scaled` ints, magnitude * den.  The slots
    strictly inside a hull segment from (x0, y0) to (x0 + dx, y0 + dy) get
    the ghosts of (y0*dx + dy*i) / (dx*den) for i = 1 .. dx-1, one
    Fraction each.  The Poly keeps den and the hull's vertices, with their
    layers, until `_image_of` turns them into the form's integer image.
    """
    full = getattr(f, "_full", None)
    if full is not None:
        return full
    if f.is_zero:
        raise ValueError("the zero polynomial has no canonical full form")
    shift = f.ldeg
    den, (view,) = scaled([f._coeffs])
    hull = _upper_hull([(deg - shift, m, ghost)
                        for deg, (m, ghost) in sorted(view.items())])
    coeffs: list[Element] = [f.coeff(shift)]
    flags: list[bool] = [True]
    x0, y0, _ = hull[0]
    for x1, y1, _ in hull[1:]:
        dx, dy = x1 - x0, y1 - y0
        num, scale = y0 * dx, dx * den
        coeffs.extend([Element(Fraction(num + dy * i, scale), True)
                       for i in range(1, dx)])
        flags.extend([False] * (dx - 1))
        coeffs.append(f.coeff(shift + x1))
        flags.append(True)
        x0, y0 = x1, y1
    full = FullPoly(shift, tuple(coeffs), tuple(flags))
    object.__setattr__(f, "_full", full)
    object.__setattr__(f, "_hull", (den, hull))
    return full


def _image_of(f: Poly) -> tuple[int, dict]:
    """The integer image of f's canonical form: a scale D and the map
    slot -> (magnitude * D, ghost) over slots 0 .. hi, built once per Poly
    from the hull that `canonical_full` took, with no second `scaled`.

    A hull segment from (x0, y0) to (x0 + dx, y0 + dy) rises by dy / dx
    per slot, whose reduced denominator r divides dx; L is the lcm of the
    segments' r, and D = den * L.  A vertex slot is y0 * L, and the i-th
    slot inside a segment y0 * L + i * dy * L / dx.
    """
    canonical_full(f)
    if f._hull is None:
        return f._image
    den, hull = f._hull
    segments = list(zip(hull, hull[1:]))
    big = lcm(*[(x1 - x0) // gcd(x1 - x0, y1 - y0)
                for (x0, y0, _), (x1, y1, _) in segments])
    view = [(hull[0][1] * big, hull[0][2])]
    for (x0, y0, _), (x1, y1, ghost) in segments:
        base, rise = y0 * big, (y1 - y0) * big // (x1 - x0)
        view += [(base + rise * i, True) for i in range(1, x1 - x0)]
        view.append((y1 * big, ghost))
    image = den * big, dict(enumerate(view))
    object.__setattr__(f, "_image", image)
    object.__setattr__(f, "_hull", None)
    return image


def essential_part(f: Poly) -> Poly:
    """Only the hull-vertex monomials, with their original coefficients."""
    full = canonical_full(f)
    return Poly({full.shift + i: full.coeffs[i]
                 for i in range(full.hi + 1) if full.vertex[i]})


def e_equiv(f: Poly, g: Poly) -> bool:
    """Equality as polynomial functions (equal canonical full forms)."""
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    a = canonical_full(f)
    b = canonical_full(g)
    return a.shift == b.shift and a.coeffs == b.coeffs


def is_ghost_poly(f: Poly) -> bool:
    """Does f take ghost-ideal values everywhere (including at -inf)?"""
    if f.is_zero:
        return True
    return canonical_full(f).all_ghost


# -- tangible roots ----------------------------------------------------------


def tangible_roots(f: Poly) -> RootSet:
    """Closed-interval union of tangible roots, plus the bottom flag.

    On the canonical full form with corner roots a_1 <= ... <= a_h, every
    corner is a root (two monomials tie there), and a ghost coefficient makes
    its whole closed dominance region [a_i, a_{i+1}] roots; the extreme
    regions are unbounded.  The flag records a root at -inf (positive shift
    or ghost constant term).

    The intervals are swept on the form's integer image (`_root_runs`);
    each finite endpoint costs one Fraction, n / D.
    """
    full = canonical_full(f)
    scale, view = _image_of(f)
    return RootSet(_intervals(_root_runs(view), scale),
                   full.shift > 0 or view[0][1])


def _root_runs(view: dict) -> list[tuple]:
    """The tangible root intervals of a canonical form's integer image, on
    its scale: sorted, disjoint and separated (lo, hi) pairs of ints, with
    the float infinities as the unbounded ends.

    One left-to-right pass: slot i dominates [a_i, a_{i+1}] (a_0 = -inf,
    a_{h+1} = +inf) and the corner a_{i+1} is a root in any case, so slot i
    adds the piece [a_i, a_{i+1}] when it is ghost and the point a_{i+1}
    otherwise.  Each piece starts at or after the end a_i of the last one,
    so a ghost slot extends the last interval.  A tangible slot is a strict
    hull vertex, so a_i < a_{i+1} and its point starts a new interval.
    """
    runs: list[tuple] = []
    slots = iter(view.values())
    top, ghost = next(slots)
    for mag, next_ghost in slots:
        hi = top - mag
        if not ghost:
            runs.append((hi, hi))
        elif runs:
            runs[-1] = (runs[-1][0], hi)
        else:
            runs.append((NEG_INF, hi))
        top, ghost = mag, next_ghost
    if ghost:  # a ghost top slot dominates [a_h, +inf)
        runs[-1:] = [(runs[-1][0] if runs else NEG_INF, POS_INF)]
    return runs


def _intervals(runs: list[tuple], scale: int) -> IntervalSet:
    """Integer runs on `scale` as an IntervalSet: one Fraction, n / scale,
    per finite endpoint."""
    out = []
    for lo, hi in runs:
        a = lo if type(lo) is float else Fraction(lo, scale)
        out.append((a, a if hi == lo else hi if type(hi) is float
                    else Fraction(hi, scale)))
    return IntervalSet(tuple(out))


# -- graph of the polynomial function ----------------------------------------


class PiecewiseLinear(Record):
    """Convex piecewise-linear graph with per-piece and breakpoint layers.

    Pieces are listed left to right; piece k is x -> intercepts[k] +
    slopes[k] * x on the span delimited by the breakpoints.  Breakpoint
    values always tie two monomials, hence their layer is ghost.
    """

    __slots__ = ("breakpoints", "slopes", "intercepts", "piece_ghost",
                 "breakpoint_ghost")

    breakpoints: tuple[Fraction, ...]
    slopes: tuple[int, ...]
    intercepts: tuple[Fraction, ...]
    piece_ghost: tuple[bool, ...]
    breakpoint_ghost: tuple[bool, ...]


def ggraph(f: Poly) -> PiecewiseLinear:
    """Graph data of f as a function on tangible arguments."""
    full = canonical_full(f)
    breaks = tuple(sorted(set(full.corner_roots())))
    # A slot dominates a nonempty span exactly when it is a hull vertex.
    pieces = [i for i, v in enumerate(full.vertex) if v]
    # Each breakpoint ties two monomials, so f is ghost there.
    return PiecewiseLinear(breaks, tuple(full.shift + i for i in pieces),
                           tuple(full.coeffs[i].mag for i in pieces),
                           tuple(full.coeffs[i].is_ghost for i in pieces),
                           (True,) * len(breaks))


# -- half-tangible classification and ghost sums ------------------------------


class Side(enum.Enum):
    """Side of the threshold on which the polynomial is tangible-valued."""

    LEFT = "left"
    RIGHT = "right"


def classify_half_tangible(f: Poly) -> tuple[Side, Fraction] | None:
    """Detect one-sided tangibility over tangible arguments.

    Left with threshold b: tangible values exactly below b (roots [b, inf)).
    Right with threshold a: tangible values exactly above a (roots
    (-inf, a]).  The bottom element is not an argument here.  Returns None
    when neither pattern matches.
    """
    intervals = tangible_roots(f).intervals.intervals
    if len(intervals) != 1:
        return None
    lo, hi = intervals[0]
    if isinstance(lo, Fraction) and hi == POS_INF:
        return (Side.LEFT, lo)
    if lo == NEG_INF and isinstance(hi, Fraction):
        return (Side.RIGHT, hi)
    return None


class CommonRoot(Record):
    """A ghost sum explained by a shared tangible root."""

    __slots__ = ("witness",)

    witness: Fraction


class HalfTangible(Record):
    """A ghost sum of two half-tangible polynomials, thresholds alpha < beta."""

    __slots__ = ("alpha", "beta")

    alpha: Fraction
    beta: Fraction


class NotGhostSum(Record):
    """The sum takes a tangible value somewhere."""

    __slots__ = ()


def analyze_ghost_sum(f: Poly,
                      g: Poly) -> CommonRoot | HalfTangible | NotGhostSum:
    """Explain why f + g is ghost, if it is.

    For non-monomial f and g with a ghost sum, either the tangible root sets
    meet (witnessed by the leftmost finite point of the intersection) or the
    two polynomials are half-tangible on opposite sides, with the
    right-tangible threshold alpha strictly below the left-tangible
    threshold beta.
    """
    if f.is_zero or g.is_zero or f.is_monomial or g.is_monomial:
        raise ValueError("ghost-sum analysis needs two non-monomial polynomials")
    if not is_ghost_poly(f + g):
        return NotGhostSum()
    common = tangible_roots(f).intervals.intersect(tangible_roots(g).intervals)
    if not common.is_empty:
        witness = common.leftmost_finite()
        # Invariants raise rather than assert, so that -O keeps them.
        if witness is None:
            raise AssertionError(("nonempty common root set without a "
                                  "finite point", f, g, common))
        return CommonRoot(witness)
    cf = classify_half_tangible(f)
    cg = classify_half_tangible(g)
    if cf is None or cg is None or cf[0] == cg[0]:
        raise ArithmeticError("ghost sum without common root or opposite "
                              "half-tangible shapes; input outside the theory")
    left = cf if cf[0] is Side.LEFT else cg
    right = cg if cf[0] is Side.LEFT else cf
    alpha, beta = right[1], left[1]
    if not alpha < beta:
        raise AssertionError(("half-tangible thresholds out of order",
                              f, g, alpha, beta))
    return HalfTangible(alpha, beta)


# -- degree-preserving transforms ---------------------------------------------


def frobenius(f: Poly, m: int) -> Poly:
    """Power map f(x) -> f(x^m) read on exponents: degree i becomes m*i.

    Tangible roots divide by m (in logarithmic notation), which stays inside
    the rationals.
    """
    if type(m) is not int or m < 1:
        raise ValueError(f"frobenius exponent must be a positive integer: {m!r}")
    return Poly({m * deg: c for deg, c in f.items()})


def mul_shift(f: Poly, b: Rational) -> Poly:
    """Substitute b*x for x: slot i picks up the tangible factor i*b.

    Roots translate by -b.
    """
    step = as_fraction(b)
    return Poly({deg: c * tangible(deg * step) for deg, c in f.items()})


def add_shift(f: Poly, beta: Element) -> Poly:
    """Substitute x + beta for x, expanded by repeated multiplication."""
    shifted = Poly({1: ONE, 0: beta})
    result = Poly.zero()
    power = Poly.constant(ONE)
    last = 0
    for deg in sorted(dict(f.items())):
        for _ in range(deg - last):
            power = power * shifted
        last = deg
        result = result + power.scale(f.coeff(deg))
    return result


def full_from_corners(corners: Sequence[Rational],
                      ghost_flags: Sequence[bool],
                      lead_mag: Rational = 0,
                      shift: int = 0) -> Poly:
    """Full polynomial with the given nondecreasing corner-root sequence.

    ghost_flags has one entry per slot, constant first, length
    len(corners) + 1; magnitudes accumulate downward from the leading one.
    """
    roots = [as_fraction(a) for a in corners]
    if any(a > b for a, b in zip(roots, roots[1:])):
        raise ValueError("corner roots must be nondecreasing")
    h = len(roots)
    if len(ghost_flags) != h + 1:
        raise ValueError("need one layer flag per coefficient slot")
    mags = [as_fraction(lead_mag)] * (h + 1)
    for i in range(h - 1, -1, -1):
        mags[i] = mags[i + 1] + roots[i]
    return Poly({shift + i: Element(mags[i], bool(ghost_flags[i]))
                 for i in range(h + 1)})

