"""Polynomials in two variables and a desk-scale common-root probe.

The resultant that eliminates the second variable is computed exactly as
in the one-variable case: a permanent of the Sylvester matrix, except the
entries are now polynomials in the first variable.  Because evaluation at
a point is a semiring map, specialising the first variable commutes with
taking that permanent, which is the main exactness test for this module.

`common_roots_sample` finds the points of a rational grid where both
inputs take ghost values, entirely in integer arithmetic.  It sweeps the
grid row by row: on a row y = b every term is a line in x, and the value
is ghost exactly at the breakpoints of the upper envelope of those lines
and along its pieces that come from ghost terms.  Each row therefore
yields its ghost set as a few integer intervals, and the grid points in
the intersection of both inputs' intervals are listed directly.  With the
terms sorted by x exponent once, a scan costs O(rows * terms + hits)
rather than a probe of every grid point.  `bezout_report` clusters the hits in O(hits) and compares the
count of isolated ones against the product of the total degrees.  The
clustering is heuristic by nature; the degree bound on isolated hits is
the part that is checked.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from .element import Element, ONE, ZERO, Rational, as_fraction
from .poly import Poly
from .record import Record
from .resultant import permanent, sylvester_vectors


Terms = dict[tuple[int, int], Element]


# The sparse core: exponent pair -> coefficient maps that never hold Zero.
# Sums and products of nonzero elements are nonzero, so the results keep
# that invariant with no filtering.

def terms_add(p: Terms, *rest: Terms) -> Terms:
    out = dict(p)
    for q in rest:
        for key, c in q.items():
            cur = out.get(key)
            out[key] = c if cur is None else cur + c
    return out


def terms_mul(p: Terms, q: Terms) -> Terms:
    for mono, other in ((q, p), (p, q)):
        if len(mono) == 1:
            ((k, l), d), = mono.items()
            if d is ONE:  # a bare monomial, as in "3*x^2": shift exponents
                return {(i + k, j + l): c for (i, j), c in other.items()}
    out: Terms = {}
    for (i, j), c in p.items():
        for (k, l), d in q.items():
            key = (i + k, j + l)
            term = c * d
            cur = out.get(key)
            out[key] = term if cur is None else cur + term
    return out


def terms_pow(p: Terms, n: int) -> Terms:
    """The n-th power by squaring; a monomial's power is read off directly.

    Supertropical addition is associative and commutative and
    multiplication distributes over it, so this equals n - 1 repeated
    products.
    """
    if n < 0:
        raise ValueError("negative power")
    if n == 0:
        return {(0, 0): ONE}
    if len(p) == 1:
        ((i, j), c), = p.items()
        return {(n * i, n * j): c if c is ONE else c ** n}
    out = None
    while True:
        if n & 1:
            out = p if out is None else terms_mul(out, p)
        n >>= 1
        if not n:
            return out
        p = terms_mul(p, p)


class BiPoly:
    """Polynomial in x and y with supertropical coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[tuple[int, int], Element] | None = None):
        data: dict[tuple[int, int], Element] = {}
        for (i, j), c in (coeffs or {}).items():
            if not isinstance(i, int) or not isinstance(j, int) or i < 0 or j < 0:
                raise ValueError(f"bad exponent pair ({i}, {j})")
            if not c.is_zero:
                data[(i, j)] = c
        object.__setattr__(self, "_coeffs", data)

    @classmethod
    def _of(cls, terms: Terms) -> "BiPoly":
        # Trusted: `terms` is a core map.  Nothing mutates a polynomial's
        # map, so it may be shared.
        out = object.__new__(cls)
        object.__setattr__(out, "_coeffs", terms)
        return out

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @staticmethod
    def zero() -> "BiPoly":
        return BiPoly()

    @staticmethod
    def constant(c: Element) -> "BiPoly":
        return BiPoly({(0, 0): c})

    @staticmethod
    def monomial(i: int, j: int, coeff: Element = ONE) -> "BiPoly":
        return BiPoly({(i, j): coeff})

    @staticmethod
    def from_poly(f: Poly, var: str = "x") -> "BiPoly":
        if var not in ("x", "y"):
            raise ValueError("var must be 'x' or 'y'")
        if var == "x":
            return BiPoly({(i, 0): c for i, c in f.items()})
        return BiPoly({(0, j): c for j, c in f.items()})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def deg_x(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return max(i for i, _ in self._coeffs)

    @property
    def deg_y(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return max(j for _, j in self._coeffs)

    @property
    def total_degree(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no degree")
        return max(i + j for i, j in self._coeffs)

    def coeff(self, i: int, j: int) -> Element:
        return self._coeffs.get((i, j), ZERO)

    def items(self):
        return sorted(self._coeffs.items())

    def __add__(self, other: "BiPoly") -> "BiPoly":
        return BiPoly._of(terms_add(self._coeffs, other._coeffs))

    def __mul__(self, other: "BiPoly") -> "BiPoly":
        return BiPoly._of(terms_mul(self._coeffs, other._coeffs))

    def __pow__(self, n: int) -> "BiPoly":
        return BiPoly._of(terms_pow(self._coeffs, n))

    def __eq__(self, other) -> bool:
        return isinstance(other, BiPoly) and self._coeffs == other._coeffs

    def __hash__(self):
        return hash(frozenset(self._coeffs.items()))

    def evaluate(self, x: Element, y: Element) -> Element:
        total = ZERO
        for (i, j), c in self._coeffs.items():
            total = total + c * x ** i * y ** j
        return total

    def specialize_y(self, b: Element) -> Poly:
        """Substitute y = b, leaving a polynomial in x."""
        out: dict[int, Element] = {}
        for (i, j), c in self._coeffs.items():
            term = c * b ** j
            out[i] = out[i] + term if i in out else term
        return Poly(out)

    def specialize_x(self, a: Element) -> Poly:
        """Substitute x = a, leaving a polynomial in y."""
        out: dict[int, Element] = {}
        for (i, j), c in self._coeffs.items():
            term = c * a ** i
            out[j] = out[j] + term if j in out else term
        return Poly(out)

    def y_vector(self) -> list[Poly]:
        """Coefficients as a polynomial in y: entry j is a Poly in x."""
        out = [dict() for _ in range(self.deg_y + 1)]
        for (i, j), c in self._coeffs.items():
            out[j][i] = c
        return [Poly(d) for d in out]

    def __repr__(self) -> str:
        return f"BiPoly({self._coeffs!r})"

    def __str__(self) -> str:
        if self.is_zero:
            return "-inf"
        parts = []
        for (i, j), c in sorted(self._coeffs.items(),
                                key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0])):
            factors = []
            if c != ONE or (i == 0 and j == 0):
                factors.append(str(c))
            if i == 1:
                factors.append("x")
            elif i > 1:
                factors.append(f"x^{i}")
            if j == 1:
                factors.append("y")
            elif j > 1:
                factors.append(f"y^{j}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def partial_frobenius(f: BiPoly, m: int, var: str = "x") -> BiPoly:
    """Substitute the m-th power of one variable: f(x^m, y) or f(x, y^m).

    Sends a common root (a, b) of a pair to (a/m, b) (or (a, b/m)) in
    logarithmic notation.
    """
    if m < 1:
        raise ValueError("power must be >= 1")
    if var == "x":
        return BiPoly({(m * i, j): c for (i, j), c in f.items()})
    if var == "y":
        return BiPoly({(i, m * j): c for (i, j), c in f.items()})
    raise ValueError("var must be 'x' or 'y'")


def resultant_in_second(f: BiPoly, g: BiPoly) -> Poly:
    """Resultant eliminating y, as a polynomial in x.

    The inputs are viewed as polynomials in y whose coefficients live in
    the polynomial semiring in x; the value is the permanent of their
    Sylvester matrix over that semiring.  The raw y-coefficient vectors
    are used without canonicalisation, so specialising x at any tangible
    point commutes with the whole computation.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial")
    if f.deg_y == 0 or g.deg_y == 0:
        raise ValueError("inputs must be nonconstant in y")
    fv, gv = f.y_vector(), g.y_vector()
    grid = sylvester_vectors(fv, gv, zero=Poly.zero())
    return permanent(grid, zero=Poly.zero(), one=Poly.constant(ONE))


def _slope_groups(f: BiPoly, scale: int) -> list[tuple[int, list]]:
    # Scaled terms grouped by x exponent, in increasing order: on a grid
    # row y = b each group is a family of parallel lines in x.
    groups: dict[int, list[tuple[int, int, bool]]] = {}
    for (i, j), c in f.items():
        groups.setdefault(i, []).append((int(c.mag * scale), j, c.is_ghost))
    return sorted(groups.items())


def _row_ghost(groups, b: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Integers of [lo, hi] where the value on row y = b is ghost.

    The value is the upper envelope of the lines of the row.  It is ghost
    where two lines attain it, which is at the envelope breakpoints, and
    along every envelope piece whose line is ghost.  Returns sorted,
    disjoint closed intervals.
    """
    hull: list[tuple[int, int, bool]] = []
    for i, terms in groups:
        # Parallel lines: keep the highest, ghost on a tie.
        c, ghost = None, False
        for m, j, g in terms:
            v = m + j * b
            if c is None or v > c:
                c, ghost = v, g
            elif v == c:
                ghost = True
        # Drop lines that the new, steeper one keeps from ever being
        # strictly on top (convex-hull trick).
        while len(hull) >= 2:
            i1, c1, _ = hull[-2]
            i2, c2, _ = hull[-1]
            if (c1 - c) * (i2 - i1) > (c1 - c2) * (i - i1):
                break
            hull.pop()
        hull.append((i, c, ghost))

    out: list[tuple[int, int]] = []

    def add(l: int, h: int) -> None:
        l, h = max(l, lo), min(h, hi)
        if l > h:
            return
        if out and l <= out[-1][1] + 1:
            out[-1] = (out[-1][0], h)  # breakpoints increase, so h does
        else:
            out.append((l, h))

    start = lo  # ceiling of the previous breakpoint
    for t, (i, c, ghost) in enumerate(hull):
        if t + 1 < len(hull):
            i2, c2, _ = hull[t + 1]
            end, rem = divmod(c - c2, i2 - i)  # floor of the next breakpoint
        else:
            end, rem = hi, 1
        if ghost:
            add(start, end)
        if rem == 0:
            add(end, end)
        start = end if rem == 0 else end + 1
    return out


def _intersect(p: list[tuple[int, int]],
               q: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out = []
    s = t = 0
    while s < len(p) and t < len(q):
        lo, hi = max(p[s][0], q[t][0]), min(p[s][1], q[t][1])
        if lo <= hi:
            out.append((lo, hi))
        if p[s][1] < q[t][1]:
            s += 1
        else:
            t += 1
    return out


Window = tuple[Rational, Rational, Rational, Rational]

DEFAULT_WINDOW: Window = (-10, 10, -10, 10)
DEFAULT_STEP = Fraction(1, 4)


def _scan(f: BiPoly, g: BiPoly, window: Window, step: Fraction) -> tuple[set, int]:
    # Scaled so that grid coordinates, including half steps, are integers.
    xlo, xhi, ylo, yhi = (as_fraction(w) for w in window)
    if step <= 0 or xhi < xlo or yhi < ylo:
        raise ValueError("bad window or step")
    mags = [c.mag for p in (f, g) for _, c in p.items()]
    scale = 2 * lcm(xlo.denominator, xhi.denominator, ylo.denominator,
                    yhi.denominator, step.denominator,
                    *(m.denominator for m in mags))
    fg, gg = _slope_groups(f, scale), _slope_groups(g, scale)
    step_s = int(step * scale)
    half = step_s // 2
    x0, x1 = int(xlo * scale), int(xhi * scale)
    rows: dict[int, tuple[list[int], list[int]]] = {}

    def row(b: int) -> tuple[list[int], list[int]]:
        # Common ghost intervals of a row, as start and end lists, over the
        # window widened by the half step that the refinement ring reaches.
        if b not in rows:
            both = _intersect(_row_ghost(fg, b, x0 - half, x1 + half),
                              _row_ghost(gg, b, x0 - half, x1 + half))
            rows[b] = ([lo for lo, _ in both], [hi for _, hi in both])
        return rows[b]

    hits = []
    for b in range(int(ylo * scale), int(yhi * scale) + 1, step_s):
        starts, ends = row(b)
        if not starts:
            del rows[b]  # no hits here, so the refinement never asks again
        for lo, hi in zip(starts, ends):
            first = x0 - (x0 - max(lo, x0)) // step_s * step_s  # column >= lo
            hits.extend((a, b) for a in range(first, min(hi, x1) + 1, step_s))
    # One refinement level: probe the half-step ring around every hit so
    # that hits lying on a shared curve piece link up into one component.
    refined = set(hits)
    for a, b in hits:
        for db in (-half, 0, half):
            starts, ends = row(b + db)
            for da in (-half, 0, half):
                p = (a + da, b + db)
                if p not in refined:
                    k = bisect_right(starts, p[0]) - 1
                    if k >= 0 and p[0] <= ends[k]:
                        refined.add(p)
    return refined, scale


def _fractions(points, scale: int) -> list[tuple[Fraction, Fraction]]:
    # One Fraction per distinct coordinate: hits share rows and columns.
    memo = {v: Fraction(v, scale) for v in {v for p in points for v in p}}
    return [(memo[a], memo[b]) for a, b in points]


def common_roots_sample(f: BiPoly, g: BiPoly, window: Window = DEFAULT_WINDOW,
                        step: Rational = DEFAULT_STEP) -> list[tuple[Fraction, Fraction]]:
    """Points of the window grid where both values are ghost.

    Exact integer arithmetic throughout; the base grid is refined once at
    half step around every hit.  Inputs must be nonzero (the zero
    polynomial is ghost everywhere).
    """
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial")
    refined, scale = _scan(f, g, window, as_fraction(step))
    return _fractions(sorted(refined), scale)


class BezoutReport(Record):
    """Grid evidence for the intersection-count bound.

    `ordinary_count` counts components that are a single sampled point;
    those approximate the isolated (2-ordinary) common roots, and the
    bound `m*n` applies to them.  `component_count` includes the extended
    components as well and is experimental: no bound is asserted for it.
    """

    __slots__ = ("m", "n", "bound", "hits", "component_count",
                 "ordinary_count", "bound_holds", "window", "step")

    m: int
    n: int
    bound: int
    hits: tuple[tuple[Fraction, Fraction], ...]
    component_count: int
    ordinary_count: int
    bound_holds: bool
    window: tuple[Fraction, Fraction, Fraction, Fraction]
    step: Fraction

    def __init__(self, m: int, n: int, bound: int,
                 hits: tuple[tuple[Fraction, Fraction], ...],
                 component_count: int, ordinary_count: int,
                 bound_holds: bool,
                 window: tuple[Fraction, Fraction, Fraction, Fraction],
                 step: Fraction):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "hits", hits)
        object.__setattr__(self, "component_count", component_count)
        object.__setattr__(self, "ordinary_count", ordinary_count)
        object.__setattr__(self, "bound_holds", bound_holds)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "step", step)


def bezout_report(f: BiPoly, g: BiPoly, window: Window = DEFAULT_WINDOW,
                  step: Rational = DEFAULT_STEP) -> BezoutReport:
    """Scan for common ghost points and count the isolated ones.

    Sampled hits are clustered with neighbors up to one and a half steps
    away (curve pieces of bounded slope then stay connected through the
    refinement points).  A singleton cluster is a transversal crossing;
    their number is checked against the product of the total degrees.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial")
    step = as_fraction(step)
    refined, scale = _scan(f, g, window, step)
    points = sorted(refined)
    # Hits lie on the half-step lattice.  Number them u * width + v there,
    # with the width padded past the reach below, so that each neighbor is
    # one integer addition away.
    half = int(step * scale) // 2
    bmin = min((b for _, b in points), default=0)
    width = (max((b for _, b in points), default=0) - bmin) // half + 25
    index = {(a // half) * width + (b - bmin) // half: k
             for k, (a, b) in enumerate(points)}
    parent = list(range(len(points)))
    size = [1] * len(points)

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    # Link hits up to three half steps apart.  The reach is symmetric, so
    # each pair is found from its first point through a forward offset.
    forward = [du * width + dv for du in range(4) for dv in range(-3, 4)
               if (du, dv) > (0, 0)]
    for key, k in index.items():
        ra = find(k)
        for off in forward:
            other = index.get(key + off)
            # In dense patches most neighbors already hang under the root.
            if other is None or parent[other] == ra:
                continue
            rb = find(other)
            if ra != rb:
                if size[ra] < size[rb]:
                    ra, rb = rb, ra
                parent[rb] = ra
                size[ra] += size[rb]

    # A singleton component only counts as ordinary when no other hit lies
    # within three steps: hits strung along a shared curve piece of slope
    # p/q with |p|, |q| bounded by the degree land at most that far apart,
    # and such pieces are not isolated crossings.
    far = [du * width + dv for du in range(-12, 13) for dv in range(-12, 13)
           if du or dv]
    ordinary = sum(1 for key, k in index.items() if size[find(k)] == 1
                   and not any(key + off in index for off in far))

    m, n = f.total_degree, g.total_degree
    bound = m * n
    return BezoutReport(
        m=m, n=n, bound=bound, hits=tuple(_fractions(points, scale)),
        component_count=sum(parent[k] == k for k in range(len(points))),
        ordinary_count=ordinary,
        bound_holds=ordinary <= bound,
        window=tuple(as_fraction(w) for w in window), step=step)
