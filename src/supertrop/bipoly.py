"""Polynomials in two variables and a desk-scale common-root probe.

A BiPoly is a `sparse.SparsePoly` keyed by exponent pairs (i, j): its
construction, equality, hash, printed form, sums, products and powers
are the core's, shared with `Poly` and the parser.

The resultant that eliminates the second variable is computed exactly as
in the one-variable case: a permanent of the Sylvester matrix, except the
entries are now polynomials in the first variable.  Because evaluation at
a point is a semiring map, specialising the first variable commutes with
taking that permanent, which is the main exactness test for this module.

`common_roots_sample` finds the points of a rational grid where both
inputs take ghost values, entirely in integer arithmetic: the `scaled`
magnitudes of the two inputs, rescaled once to the grid.  It sweeps the
grid row by row: on a row y = b every term is a line in x, and the value
is ghost exactly at the breakpoints of the upper envelope of those lines
and along its pieces that come from ghost terms; the envelope is the
upper hull of the points (slope, intercept), taken by the hull routine of
`canonical_full`.  Each row therefore yields its ghost set as a few
integer intervals, and the grid points where both inputs' intervals meet
form runs of columns.  The half-step refinement widens each run by half a
step and intersects it with the intervals of its row and the half rows
beside it.

The sweep visits only the rows where the two ghost loci can meet.  Each
locus is a union of tie edges, where two terms attain the maximum, and of
the cells where a ghost term attains it (Richter-Gebert, Sturmfels and
Theobald, "First steps in tropical geometry").  Their row ranges inside
the window come out exactly in integers.  Two edges that cross can share
only their crossing row, any other two pieces only the rows both reach.
For T terms a scan costs O(T^3) for the pieces, one test per pair of
pieces, O(candidate rows * T) for the sweep and O(hits) for the output,
with no probe of single points.  A finer step or a wider window adds candidate
rows only where a ghost cell or an edge shared by both inputs covers them.

`bezout_report` clusters the hits by runs, with a union-find over O(runs)
nodes, and compares the count of isolated ones against the product of the
total degrees.  The clustering is heuristic by nature; the degree bound on
isolated hits is the part that is checked.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from .element import Element, ONE, ZERO, Rational, as_fraction
from .intervals import IntervalSet, intersect_sorted
from .poly import Poly, _upper_hull
from .record import Record
from .resultant import permanent, sylvester_vectors
from .sparse import SparsePoly, scaled


class BiPoly(SparsePoly):
    """Polynomial in x and y with supertropical coefficients."""

    __slots__ = ()
    _unit = (0, 0)
    _is_key = staticmethod(lambda key: type(key) is tuple and len(key) == 2
                           and all(type(e) is int and e >= 0 for e in key))

    @staticmethod
    def monomial(i: int, j: int, coeff: Element = ONE) -> "BiPoly":
        return BiPoly({(i, j): coeff})

    @staticmethod
    def from_poly(f: Poly) -> "BiPoly":
        """f as a polynomial in x."""
        return BiPoly({(i, 0): c for i, c in f.items()})

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

    def evaluate(self, x: Element, y: Element) -> Element:
        total = ZERO
        for (i, j), c in self._coeffs.items():
            total = total + c * x ** i * y ** j
        return total

    def specialize_y(self, b: Element) -> Poly:
        """Substitute y = b, leaving a polynomial in x."""
        return self._specialize(b, 1)

    def specialize_x(self, a: Element) -> Poly:
        """Substitute x = a, leaving a polynomial in y."""
        return self._specialize(a, 0)

    def _specialize(self, at: Element, axis: int) -> Poly:
        # Substitute `at` for the variable of exponent slot `axis`; the
        # other slot indexes the result.
        out: dict[int, Element] = {}
        for key, c in self._coeffs.items():
            term = c * at ** key[axis]
            k = key[1 - axis]
            out[k] = out[k] + term if k in out else term
        return Poly(out)

    def y_vector(self) -> list[Poly]:
        """Coefficients as a polynomial in y: entry j is a Poly in x."""
        out = [dict() for _ in range(self.deg_y + 1)]
        for (i, j), c in self._coeffs.items():
            out[j][i] = c
        return [Poly(d) for d in out]


def partial_frobenius(f: BiPoly, m: int, var: str = "x") -> BiPoly:
    """Substitute the m-th power of one variable: f(x^m, y) or f(x, y^m).

    Sends a common root (a, b) of a pair to (a/m, b) (or (a, b/m)) in
    logarithmic notation.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"power must be a positive integer: {m!r}")
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


def _slope_groups(view: dict, k: int) -> list[tuple[int, list]]:
    # A `scaled` view's terms times k, grouped by x exponent in increasing
    # order: on a grid row y = b each group is a family of parallel lines.
    groups: dict[int, list[tuple[int, int, bool]]] = {}
    for (i, j), (m, ghost) in view.items():
        groups.setdefault(i, []).append((m * k, j, ghost))
    return sorted(groups.items())


def _row_ghost(groups, b: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Integers of [lo, hi] where the value on row y = b is ghost.

    The value is the upper envelope of the lines of the row.  It is ghost
    where two lines attain it, which is at the envelope breakpoints, and
    along every envelope piece whose line is ghost.  The lines strictly on
    top somewhere are the strict vertices of the upper hull of the points
    (slope, intercept), so `_upper_hull` gives the envelope.  Returns
    sorted, disjoint closed intervals.
    """
    tops: list[tuple[int, int, bool]] = []
    for i, terms in groups:
        # Parallel lines: keep the highest, ghost on a tie.
        c, ghost = None, False
        for m, j, g in terms:
            v = m + j * b
            if c is None or v > c:
                c, ghost = v, g
            elif v == c:
                ghost = True
        tops.append((i, c, ghost))
    hull = _upper_hull(tops)

    # Each envelope piece adds itself when its line is ghost, then its right
    # breakpoint when that is an integer; breakpoints increase, so a piece
    # either extends the last interval or starts a new one.
    out: list[tuple[int, int]] = []
    start = lo  # ceiling of the previous breakpoint
    for t, (i, c, ghost) in enumerate(hull):
        if t + 1 < len(hull):
            i2, c2, _ = hull[t + 1]
            end, rem = divmod(c - c2, i2 - i)  # floor of the next breakpoint
        else:
            end, rem = hi, 1
        if ghost or rem == 0:
            l, h = max(start if ghost else end, lo), min(end, hi)
            if l <= h:
                if out and l <= out[-1][1] + 1:
                    out[-1] = (out[-1][0], h)
                else:
                    out.append((l, h))
        start = end if rem == 0 else end + 1
    return out


def _clip(bounds, lo: int, hi: int) -> tuple[int, int]:
    """The integers t of [lo, hi] with k*t >= r for every (k, r) of
    `bounds`, as a range that is empty when lo > hi."""
    for k, r in bounds:
        if k > 0:
            lo = max(lo, -(-r // k))
        elif k < 0:
            hi = min(hi, r // k)
        elif r > 0:
            return lo, lo - 1
    return lo, hi


def _pieces(groups, x0: int, x1: int, y0: int, y1: int) -> tuple[list, list]:
    """The pieces of a polynomial's ghost locus in the box [x0, x1] x [y0, y1].

    With V_p = m_p + i_p X + j_p Y for the scaled terms, the locus is the
    union of the tie edges {V_p = V_q >= every V_r} and of the cells
    {V_p >= every V_r} of the ghost terms p; on a row it is the set that
    `_row_ghost` returns.  Returns the edges as (a, b, c, lo, hi): the
    edge lies on the line a X + b Y = c, and lo..hi are the integer rows
    where it meets the box.  The cells come as such row ranges (lo, hi).
    Each edge costs O(terms), each cell O(terms^2) by eliminating X;
    pieces that meet no integer row of the box are left out.
    """
    terms = [(i, j, m, ghost) for i, group in groups for m, j, ghost in group]
    edges, cells = [], []
    for p, (ip, jp, mp, ghost) in enumerate(terms):
        # V_p >= V_r as a X + b Y >= c.
        others = [(ip - i, jp - j, m - mp)
                  for i, j, m, _ in terms[:p] + terms[p + 1:]]
        for a, b, c in others[p:]:  # the terms q after p
            if a < 0:
                a, b, c = -a, -b, -c
            if a:
                # X = (c - b Y) / a on the line; each other half-plane and
                # each side of the box then bounds Y.
                lo, hi = _clip([(b2 * a - a2 * b, c2 * a - a2 * c)
                                for a2, b2, c2 in others] +
                               [(-b, x0 * a - c), (b, c - x1 * a)], y0, y1)
                if lo <= hi:
                    edges.append((a, b, c, lo, hi))
            elif c % b == 0 and y0 <= c // b <= y1:
                # A tie of parallel lines on the one row Y = c / b.
                y = c // b
                lo, hi = _clip([(a2, c2 - b2 * y) for a2, b2, c2 in others],
                               x0, x1)
                if lo <= hi:
                    edges.append((a, b, c, y, y))
        if ghost:
            # Fourier-Motzkin: eliminate X between each lower and each upper
            # bound on it, the box's two sides included.
            bounds = others + [(1, 0, x0), (-1, 0, -x1)]
            lows = [h for h in bounds if h[0] > 0]
            ups = [h for h in bounds if h[0] < 0]
            lo, hi = _clip([(b, c) for a, b, c in bounds if a == 0] +
                           [(a1 * b2 - a2 * b1, a1 * c2 - a2 * c1)
                            for a1, b1, c1 in lows for a2, b2, c2 in ups],
                           y0, y1)
            if lo <= hi:
                cells.append((lo, hi))
    return edges, cells


def _candidate_rows(fg, gg, x0: int, x1: int, y0: int, y1: int,
                    step: int) -> set[int]:
    """The base rows y0 + k*step of [y0, y1] that can hold a common ghost
    point of the two inputs with x in [x0, x1].

    Two edges that cross meet on one row; two edges on one line meet on
    the rows both reach; a cell meets a piece of the other input at most on
    the rows both reach.  Every base row with a common point is listed.
    """
    fe, fc = _pieces(fg, x0, x1, y0, y1)
    ge, gc = _pieces(gg, x0, x1, y0, y1)
    spans = [(max(l1, l2), min(h1, h2))
             for ours, theirs in ((fc, ge + gc), (gc, fe))
             for l1, h1 in ours for *_, l2, h2 in theirs]
    for a1, b1, c1, l1, h1 in fe:
        for a2, b2, c2, l2, h2 in ge:
            det = a1 * b2 - a2 * b1
            if det:
                y, rem = divmod(a1 * c2 - a2 * c1, det)
                if not rem:
                    spans.append((max(y, l1, l2), min(y, h1, h2)))
            elif a1 * c2 == a2 * c1 and b1 * c2 == b2 * c1:
                spans.append((max(l1, l2), min(h1, h2)))
    return {b for lo, hi in IntervalSet.of(s for s in spans if s[0] <= s[1])
            for b in range(lo + (y0 - lo) % step, hi + 1, step)}


Window = tuple[Rational, Rational, Rational, Rational]

DEFAULT_WINDOW: Window = (-10, 10, -10, 10)
DEFAULT_STEP = Fraction(1, 4)


def _scan(f: BiPoly, g: BiPoly, window: Window,
          step: Fraction) -> tuple[dict[int, list[int]], int, int]:
    """Common ghost points of the grid and of its half-step refinement, as
    nonempty rows {y: sorted x columns} in increasing y, with the scale
    that makes all their coordinates integers and the scaled half step."""
    xlo, xhi, ylo, yhi = (as_fraction(w) for w in window)
    if step <= 0 or xhi < xlo or yhi < ylo:
        raise ValueError("bad window or step")
    den, (fv, gv) = scaled([f._coeffs, g._coeffs])
    scale = 2 * lcm(den, xlo.denominator, xhi.denominator, ylo.denominator,
                    yhi.denominator, step.denominator)
    fg, gg = _slope_groups(fv, scale // den), _slope_groups(gv, scale // den)
    step_s = int(step * scale)
    half = step_s // 2
    x0, x1 = int(xlo * scale), int(xhi * scale)
    y0, y1 = int(ylo * scale), int(yhi * scale)

    def row(b: int) -> list[tuple[int, int]]:
        # Common ghost intervals of a row, over the window widened by the
        # half step that the refinement reaches.
        ours = _row_ghost(fg, b, x0 - half, x1 + half)
        return ours and intersect_sorted(
            ours, _row_ghost(gg, b, x0 - half, x1 + half))

    rows: dict[int, list[int]] = {}

    def keep(r: int, reach: list, both: list) -> None:
        # The half-step columns of `reach` where the row's values are ghost.
        reach = IntervalSet.of(reach).intervals
        cols = [a for lo, hi in intersect_sorted(reach, both)
                for a in range(lo + (x0 - lo) % half, hi + 1, half)]
        if cols:
            rows[r] = cols

    # Each common interval of a base row holds a run [first, last] of step
    # columns; the refinement reaches [first - half, last + half] on the
    # rows b - half, b and b + half.  Only a candidate row can hold a run,
    # so the loop visits those and the base row after each, which fills the
    # half row in between.  The row before a skipped one is such a row after
    # a candidate, not a candidate itself, so it leaves `below` empty, as
    # the skipped rows would.
    cand = _candidate_rows(fg, gg, x0 - half, x1 + half, y0, y1, step_s)
    below: list[tuple[int, int]] = []  # the reach of the base row below
    for b in sorted(cand | {c + step_s for c in cand}):
        both = row(b) if b in cand else []
        runs = []
        for lo, hi in both:
            first = x0 - (x0 - max(lo, x0)) // step_s * step_s  # column >= lo
            last = min(hi, x1)
            if first <= last:
                runs.append((first - half, last - (last - x0) % step_s + half))
        if below or runs:
            keep(b - half, below + runs, row(b - half))
        if runs:
            keep(b, runs, both)
        below = runs
    return rows, scale, half


def _cluster(rows: Mapping[int, list[int]], half: int) -> tuple[int, int]:
    """Components and ordinary points of points on a half-step lattice.

    `rows` maps y to its sorted x columns.  Points at most three half steps
    apart in each coordinate are neighbors, and a point is ordinary when no
    other point lies within twelve.  A run, a maximal stretch of one row
    with gaps of at most three half steps, is connected; two runs on rows
    at most three half steps apart are neighbors exactly when their
    extents, widened by three half steps, overlap.
    """
    near, far = 3 * half, 12 * half
    runs: list[list[int]] = []  # [y, first x, last x]
    row_runs: dict[int, list[int]] = {}  # indices into runs, left to right
    for b, cols in rows.items():
        ids = row_runs[b] = []
        for a in cols:
            if ids and a - runs[-1][2] <= near:
                runs[-1][2] = a
            else:
                ids.append(len(runs))
                runs.append([b, a, a])

    parent = list(range(len(runs)))
    linked = [False] * len(runs)

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for b, ours in row_runs.items():
        for d in (half, 2 * half, 3 * half):
            theirs = row_runs.get(b + d, ())
            # Widened to [first, last + near], the runs of one row stay
            # sorted and disjoint, so a two-pointer merge finds every overlap.
            i = j = 0
            while i < len(ours) and j < len(theirs):
                u, v = ours[i], theirs[j]
                _, ulo, uhi = runs[u]
                _, vlo, vhi = runs[v]
                if ulo <= vhi + near and vlo <= uhi + near:
                    linked[u] = linked[v] = True
                    parent[find(v)] = find(u)
                if uhi < vhi:
                    i += 1
                else:
                    j += 1

    components = sum(parent[u] == u for u in range(len(runs)))
    # A lone point is ordinary only when no other point lies within twelve
    # half steps: hits strung along a shared curve piece of slope p/q, with
    # |p| and |q| bounded by the degree, land at most that far apart, and
    # such pieces are not isolated crossings.  A linked run has a point
    # within three half steps, so only unlinked one-point runs are tested.
    ordinary = 0
    for u, (b, a, last) in enumerate(runs):
        if a == last and not linked[u]:
            crowd = 0
            for d in range(-far, far + 1, half):
                cols = rows.get(b + d)
                if cols:
                    crowd += (bisect_right(cols, a + far)
                              - bisect_left(cols, a - far))
            ordinary += crowd == 1
    return components, ordinary


def _fractions(rows: Mapping[int, list[int]],
               scale: int) -> list[tuple[Fraction, Fraction]]:
    # The points in (x, y) order, with one Fraction per distinct
    # coordinate: points share rows and columns.
    points = sorted((a, b) for b, cols in rows.items() for a in cols)
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
    rows, scale, _ = _scan(f, g, window, as_fraction(step))
    return _fractions(rows, scale)


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


def bezout_report(f: BiPoly, g: BiPoly, window: Window = DEFAULT_WINDOW,
                  step: Rational = DEFAULT_STEP) -> BezoutReport:
    """Scan for common ghost points and count the isolated ones.

    Sampled hits are clustered with neighbors up to one and a half steps
    away (curve pieces of bounded slope then stay connected through the
    refinement points).  A singleton cluster is a transversal crossing;
    their number is checked against the product of the total degrees.
    The clustering works on the runs of each row: O(runs) union-find
    steps, plus one bisection per row near each lone point.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial")
    step = as_fraction(step)
    rows, scale, half = _scan(f, g, window, step)
    components, ordinary = _cluster(rows, half)
    m, n = f.total_degree, g.total_degree
    bound = m * n
    return BezoutReport(
        m=m, n=n, bound=bound, hits=tuple(_fractions(rows, scale)),
        component_count=components, ordinary_count=ordinary,
        bound_holds=ordinary <= bound,
        window=tuple(as_fraction(w) for w in window), step=step)
