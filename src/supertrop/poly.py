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

The answers built here (FullPoly, PiecewiseLinear and the ghost-sum
verdicts CommonRoot, HalfTangible, NotGhostSum) are value records
(`record`): slotted, immutable, compared and hashed by their fields.
"""

from __future__ import annotations

import enum
import itertools
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction

from .element import Element, ONE, ZERO, Rational, as_fraction, ghost, tangible
from .intervals import NEG_INF, POS_INF, Endpoint, IntervalSet, RootSet
from .record import Record


class Poly:
    """Sparse supertropical polynomial in one variable.

    Zero coefficients are never stored; the zero polynomial has an empty
    coefficient map.  Addition is coefficientwise, multiplication is the
    max-plus convolution; there is no subtraction.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, Element] | None = None):
        clean: dict[int, Element] = {}
        if coeffs:
            for deg, c in coeffs.items():
                if not isinstance(deg, int) or deg < 0:
                    raise ValueError(f"bad monomial degree: {deg!r}")
                if not c.is_zero:
                    clean[deg] = c
        self._coeffs = clean

    # -- constructors --------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly()

    @staticmethod
    def constant(c: Element) -> "Poly":
        return Poly({0: c})

    @staticmethod
    def monomial(deg: int, coeff: Element = ONE) -> "Poly":
        return Poly({deg: coeff})

    @staticmethod
    def variable() -> "Poly":
        return Poly({1: ONE})

    @staticmethod
    def linear(root: Rational) -> "Poly":
        """The monic tangible linear x + root."""
        return Poly({1: ONE, 0: tangible(root)})

    # -- basic queries --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

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

    @property
    def is_constant(self) -> bool:
        return self.is_zero or self.degree == 0

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
        mags = [self._coeffs[i].mag for i in range(m + 1)]
        corners = [mags[i - 1] - mags[i] for i in range(1, m + 1)]
        return all(a <= b for a, b in zip(corners, corners[1:]))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        out = dict(self._coeffs)
        for deg, c in other._coeffs.items():
            cur = out.get(deg)
            out[deg] = c if cur is None else cur + c
        return Poly(out)

    def __mul__(self, other: "Poly") -> "Poly":
        out: dict[int, Element] = {}
        for d1, c1 in self._coeffs.items():
            for d2, c2 in other._coeffs.items():
                deg = d1 + d2
                prod = c1 * c2
                cur = out.get(deg)
                out[deg] = prod if cur is None else cur + prod
        return Poly(out)

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError(f"exponent must be a nonnegative integer: {n!r}")
        result = Poly.constant(ONE)
        for _ in range(n):
            result = result * self
        return result

    def scale(self, c: Element) -> "Poly":
        return Poly({deg: coeff * c for deg, coeff in self._coeffs.items()})

    def evaluate(self, a: Element) -> Element:
        total = ZERO
        for deg, c in self._coeffs.items():
            total = total + c * a ** deg
        return total

    def nu(self) -> "Poly":
        return Poly({deg: c.nu() for deg, c in self._coeffs.items()})

    def hat(self) -> "Poly":
        return Poly({deg: c.hat() for deg, c in self._coeffs.items()})

    # -- value protocol ----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self) -> str:
        return f"Poly({self})"

    def __str__(self) -> str:
        if self.is_zero:
            return "-inf"
        parts = []
        for deg in sorted(self._coeffs, reverse=True):
            c = self._coeffs[deg]
            if deg == 0:
                parts.append(str(c))
            else:
                var = "x" if deg == 1 else f"x^{deg}"
                parts.append(var if c == ONE else f"{c}*{var}")
        return " + ".join(parts)


# -- canonical full form ----------------------------------------------------


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

    def __init__(self, shift: int, coeffs: tuple[Element, ...],
                 vertex: tuple[bool, ...]):
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "vertex", vertex)

    @property
    def lo(self) -> int:
        return 0

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
        mags = [c.mag for c in self.coeffs]
        return tuple(mags[i - 1] - mags[i] for i in range(1, len(mags)))

    def to_poly(self) -> Poly:
        return Poly({self.shift + i: c for i, c in enumerate(self.coeffs)})

    def __str__(self) -> str:
        return str(self.to_poly())


def _upper_hull(points: list[tuple[int, Fraction]]) -> list[tuple[int, Fraction]]:
    """Strict vertices of the upper concave hull; collinear points dropped."""
    stack: list[tuple[int, Fraction]] = []
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
    of polynomial functions.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has no canonical full form")
    shift = f.ldeg
    points = sorted((deg - shift, c.mag) for deg, c in f.items())
    hull = _upper_hull(points)
    vertex_at = dict(hull)
    hi = points[-1][0]
    coeffs: list[Element] = []
    flags: list[bool] = []
    seg = 0
    for i in range(hi + 1):
        if i in vertex_at:
            coeffs.append(f.coeff(shift + i))
            flags.append(True)
            if seg + 1 < len(hull) and hull[seg + 1][0] == i:
                seg += 1
        else:
            while hull[seg + 1][0] < i:
                seg += 1
            (x0, y0), (x1, y1) = hull[seg], hull[seg + 1]
            mag = y0 + (y1 - y0) * Fraction(i - x0, x1 - x0)
            coeffs.append(ghost(mag))
            flags.append(False)
    return FullPoly(shift, tuple(coeffs), tuple(flags))


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
    """
    full = canonical_full(f)
    corners = full.corner_roots()
    h = full.hi
    pieces: list[tuple[Endpoint, Endpoint]] = []
    for i in range(h + 1):
        lo: Endpoint = corners[i - 1] if i >= 1 else NEG_INF
        hi: Endpoint = corners[i] if i < h else POS_INF
        if full.coeffs[i].is_ghost:
            pieces.append((lo, hi))
    for a in corners:
        pieces.append((a, a))
    at_bottom = full.shift > 0 or full.coeffs[0].is_ghost
    return RootSet(IntervalSet.of(pieces), at_bottom)


def tangible_domain(f: Poly) -> tuple[tuple[Endpoint, Endpoint], ...]:
    """Maximal open intervals of tangible arguments where f takes tangible
    values: the complement of the tangible root intervals."""
    return tangible_roots(f).intervals.complement_pieces()


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

    def __init__(self, breakpoints: tuple[Fraction, ...],
                 slopes: tuple[int, ...], intercepts: tuple[Fraction, ...],
                 piece_ghost: tuple[bool, ...],
                 breakpoint_ghost: tuple[bool, ...]):
        object.__setattr__(self, "breakpoints", breakpoints)
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "intercepts", intercepts)
        object.__setattr__(self, "piece_ghost", piece_ghost)
        object.__setattr__(self, "breakpoint_ghost", breakpoint_ghost)

    def value_at(self, x: Fraction) -> Fraction:
        # At a breakpoint the two adjacent pieces agree, so the piece with
        # as many breakpoints strictly below x works in every case.
        k = sum(1 for b in self.breakpoints if b < x)
        return self.intercepts[k] + self.slopes[k] * x


def ggraph(f: Poly) -> PiecewiseLinear:
    """Graph data of f as a function on tangible arguments."""
    full = canonical_full(f)
    corners = full.corner_roots()
    h = full.hi
    breaks = tuple(sorted(set(corners)))
    slopes: list[int] = []
    intercepts: list[Fraction] = []
    piece_ghost: list[bool] = []
    for i in range(h + 1):
        lo = corners[i - 1] if i >= 1 else None
        hi = corners[i] if i < h else None
        if lo is not None and hi is not None and lo == hi:
            continue  # this monomial dominates nowhere
        slopes.append(full.shift + i)
        intercepts.append(full.coeffs[i].mag)
        piece_ghost.append(full.coeffs[i].is_ghost)
    bp_ghost = tuple(f.evaluate(tangible(b)).is_ghost for b in breaks)
    return PiecewiseLinear(breaks, tuple(slopes), tuple(intercepts),
                           tuple(piece_ghost), bp_ghost)


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
    roots = tangible_roots(f)
    if len(roots.intervals.intervals) != 1:
        return None
    lo, hi = roots.intervals.intervals[0]
    if isinstance(lo, Fraction) and hi == POS_INF:
        return (Side.LEFT, lo)
    if lo == NEG_INF and isinstance(hi, Fraction):
        return (Side.RIGHT, hi)
    return None


class CommonRoot(Record):
    """A ghost sum explained by a shared tangible root."""

    __slots__ = ("witness",)

    witness: Fraction

    def __init__(self, witness: Fraction):
        object.__setattr__(self, "witness", witness)


class HalfTangible(Record):
    """A ghost sum of two half-tangible polynomials, thresholds alpha < beta."""

    __slots__ = ("alpha", "beta")

    alpha: Fraction
    beta: Fraction

    def __init__(self, alpha: Fraction, beta: Fraction):
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)


class NotGhostSum(Record):
    """The sum takes a tangible value somewhere."""

    __slots__ = ()


GhostSumAnalysis = CommonRoot | HalfTangible | NotGhostSum


def analyze_ghost_sum(f: Poly, g: Poly) -> GhostSumAnalysis:
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
        assert witness is not None
        return CommonRoot(witness)
    cf = classify_half_tangible(f)
    cg = classify_half_tangible(g)
    if cf is None or cg is None or cf[0] == cg[0]:
        raise ArithmeticError("ghost sum without common root or opposite "
                              "half-tangible shapes; input outside the theory")
    left = cf if cf[0] is Side.LEFT else cg
    right = cg if cf[0] is Side.LEFT else cf
    alpha, beta = right[1], left[1]
    assert alpha < beta
    return HalfTangible(alpha, beta)


# -- degree-preserving transforms ---------------------------------------------


def frobenius(f: Poly, m: int) -> Poly:
    """Power map f(x) -> f(x^m) read on exponents: degree i becomes m*i.

    Tangible roots divide by m (in logarithmic notation), which stays inside
    the rationals.
    """
    if not isinstance(m, int) or m < 1:
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


def function_samples(polys: Sequence[Poly]) -> list[Element]:
    """Probe arguments separating the functions in the given family.

    All corner roots of all canonical forms, midpoints between consecutive
    ones, one point beyond each extreme, plus ghost copies of everything and
    the bottom element.  Two e-inequivalent polynomials differ on at least
    one of these.
    """
    breaks: set[Fraction] = set()
    for f in polys:
        if not f.is_zero:
            breaks.update(canonical_full(f).corner_roots())
    if not breaks:
        points = [Fraction(0)]
    else:
        grid = sorted(breaks)
        points = [grid[0] - 1]
        for a, b in itertools.pairwise(grid):
            points.append(a)
            if a != b:
                points.append((a + b) / 2)
        points.extend([grid[-1], grid[-1] + 1])
    samples: list[Element] = [ZERO]
    for x in points:
        samples.append(tangible(x))
        samples.append(ghost(x))
    return samples
