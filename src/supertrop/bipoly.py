"""Polynomials in two variables and a desk-scale common-root probe.

A BiPoly is a `sparse.SparsePoly` keyed by exponent pairs (i, j): its
construction, equality, hash, printed form, sums, products and powers
are the core's, shared with `Poly` and the parser.

The resultant that eliminates the second variable is computed exactly as
in the one-variable case: a permanent of the Sylvester matrix, except the
entries are now polynomials in the first variable.  Because evaluation at
a point is a semiring map, specialising the first variable commutes with
taking that permanent, which is the main exactness test for this module.
`resultant_in_second` returns its exact formal coefficients, those off the
upper hull included.  It runs its own O(2^k) subset DP for the Sylvester
size k on one scaled integer view of both inputs, with `sparse._convolve`
as the product and `sparse._merged` as the sum of y-coefficients, and
builds one Fraction and one Element per output coefficient.

`common_roots_sample` finds the points of a rational grid where both
inputs take ghost values, entirely in integer arithmetic: the `scaled`
magnitudes of the two inputs, rescaled once to the grid.  Each input's
ghost locus is a union of tie edges, where two terms attain the maximum,
and of the cells where a ghost term attains it (Richter-Gebert, Sturmfels
and Theobald, "First steps in tropical geometry").  `_pieces` finds them
once, exactly, in one form: the half-planes that bound x from below and
above on a row, and the integer rows the piece reaches.  An edge on the
line a x + b y = c is bounded by that line from both sides.  The common
locus is the union of the meets of a piece of each input: `_meet` joins
the two pieces' bounds and eliminates x between them to find the rows
where they meet, so two crossing edges meet only on their crossing row.
Those rows are the only ones visited.  On a row each common piece gives
one integer interval of x, an edge at most one point, and the grid points
of those intervals form runs of columns.  The half-step refinement widens
each run by half a step and intersects it with the common intervals of its
row and the half rows beside it.

The hits stay runs, (first, last) pairs on the half-step lattice, from
the scan through the clustering; only the output lists them point by
point.  For T terms a scan costs O(T^3) for the pieces, O(T^4) for the
meets, one elimination per pair of pieces, and O(active common pieces *
bounds + runs) per visited row, with no probe of single points and no
step per hit.  A finer step or a wider window adds visited rows only
where the common locus spans rows: where it meets a ghost cell or an edge
of both inputs.  Only the output costs O(hits): a pair per hit, with
one Fraction per distinct coordinate.

`bezout_report` clusters the runs, with a union-find over O(runs) nodes,
and compares the count of isolated hits against the product of the total
degrees.  The clustering is heuristic by nature; the degree bound on
isolated hits is the part that is checked.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from math import lcm

from .element import Element, ONE, ZERO, Rational, as_fraction
from .intervals import intersect_sorted
from .poly import Poly
from .record import Record
from .resultant import _band
from .sparse import SparsePoly, _convolve, _merged, _unscaled, scaled


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
        return self.specialize_y(y).evaluate(x)

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


def partial_frobenius(f: BiPoly, m: int, var: str = "x") -> BiPoly:
    """Substitute the m-th power of one variable: f(x^m, y) or f(x, y^m).

    Sends a common root (a, b) of a pair to (a/m, b) (or (a, b/m)) in
    logarithmic notation.
    """
    if type(m) is not int or m < 1:
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
    Sylvester matrix over that semiring, with its exact formal
    coefficients, not only its function.  The raw y-coefficients are used
    without canonicalisation, so specialising x at any tangible point
    commutes with the whole computation.

    Both inputs go on one integer scale once (`scaled`), and each nonzero
    y-coefficient becomes a scaled map keyed by the degree in x.  Grouped
    in ascending degree in y, they are the entries of the sparse band
    (`resultant._band`), multiplied by `_convolve` and added by `_merged`.
    A subset DP over the columns already matched takes the permanent one
    row at a time, O(2^k) states for the Sylvester size k, with no Fraction
    or Element until the one conversion of the result.
    """
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial")
    if f.deg_y == 0 or g.deg_y == 0:
        raise ValueError("inputs must be nonconstant in y")
    den, views = scaled([f._coeffs, g._coeffs])
    sides = []
    for view in views:
        side: dict[int, dict] = {}
        for (i, j), mg in view.items():
            side.setdefault(j, {})[i] = mg
        sides.append(dict(sorted(side.items())))
    rows = _band(*sides)
    dp = {0: {0: (0, False)}}
    for row in rows:
        entries = [(1 << j, e) for j, e in row.items()]
        nxt: dict[int, dict] = {}
        for mask, acc in dp.items():
            for bit, e in entries:
                if not mask & bit:
                    key, term = mask | bit, _convolve(acc, e)
                    nxt[key] = _merged(nxt[key], term) if key in nxt else term
        dp = nxt
    return Poly._of(_unscaled(dp.get((1 << len(rows)) - 1, {}), den, None))


def _merge(spans) -> list[tuple[int, int]]:
    """The union of the nonempty integer intervals [lo, hi] of `spans`, as
    sorted, disjoint intervals; adjacent ones merge."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if out and lo <= out[-1][1] + 1:
            out[-1] = (out[-1][0], max(hi, out[-1][1]))
        elif lo <= hi:
            out.append((lo, hi))
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


def _eliminate(lows, ups) -> list[tuple[int, int]]:
    """Fourier-Motzkin: the bounds k Y >= r on Y that eliminating X leaves of
    each lower bound a X + b Y >= c of `lows` (a > 0) and each upper bound
    of `ups` (a < 0)."""
    return [(a1 * b2 - a2 * b1, a1 * c2 - a2 * c1)
            for a1, b1, c1 in lows for a2, b2, c2 in ups]


def _pieces(view: dict, k: int, x0: int, x1: int, y0: int,
            y1: int) -> list:
    """The pieces of a polynomial's ghost locus in the box [x0, x1] x [y0, y1].

    `view` is the polynomial's `scaled` view, which k brings to the box's
    units.  With V_p = m_p + i_p X + j_p Y for its terms, the locus is the
    union of the tie edges {V_p = V_q >= every V_r} and of the cells
    {V_p >= every V_r} of the ghost terms p.  A piece is (lo, hi, lows,
    ups): it meets the box on the integer rows lo..hi, and on a row Y its X
    range is bounded below by each half-plane a X + b Y >= c of `lows`
    (a > 0) and above by each of `ups` (a < 0).  A sloped edge on the line
    a X + b Y = c has the bounds (a, b, c) and (-a, -b, -c), a tie of
    parallel lines on one row the ends of its stretch of that row.  Each
    edge costs O(terms), each cell O(terms^2) by eliminating X; pieces that
    meet no integer row of the box are left out.
    """
    terms = [(i, j, m * k, ghost) for (i, j), (m, ghost) in view.items()]
    pieces = []
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
                    pieces.append((lo, hi, [(a, b, c)], [(-a, -b, -c)]))
            elif c % b == 0 and y0 <= c // b <= y1:
                # A tie of parallel lines on the one row Y = c / b.
                y = c // b
                lo, hi = _clip([(a2, c2 - b2 * y) for a2, b2, c2 in others],
                               x0, x1)
                if lo <= hi:
                    pieces.append((y, y, [(1, 0, lo)], [(-1, 0, -hi)]))
        if ghost:
            # The box's two sides bound X as well.
            bounds = others + [(1, 0, x0), (-1, 0, -x1)]
            lows = [h for h in bounds if h[0] > 0]
            ups = [h for h in bounds if h[0] < 0]
            lo, hi = _clip([(b, c) for a, b, c in bounds if a == 0] +
                           _eliminate(lows, ups), y0, y1)
            if lo <= hi:
                pieces.append((lo, hi, lows, ups))
    return pieces


def _meet(fp: list, gp: list) -> list:
    """The common ghost locus of the pieces `fp` and `gp` of two inputs: the
    nonempty meets of a piece of each, in the form of `_pieces`.

    A meet keeps both pieces' bounds, each once, on the rows both reach
    where some real X satisfies them all.  The bounds of one piece already
    agree on its rows, so only each piece's lower bounds and the other's
    upper bounds are eliminated: two crossing edges meet on their crossing
    row.
    """
    out = []
    for lo1, hi1, lows1, ups1 in fp:
        for lo2, hi2, lows2, ups2 in gp:
            lo, hi = max(lo1, lo2), min(hi1, hi2)
            if lo <= hi:
                lo, hi = _clip(_eliminate(lows1, ups2) +
                               _eliminate(lows2, ups1), lo, hi)
                if lo <= hi:
                    out.append((lo, hi, list({*lows1, *lows2}),
                                list({*ups1, *ups2})))
    return out


def _row_ghost(pieces: list, y: int) -> list[tuple[int, int]]:
    """The integers x with (x, y) on one of `pieces`, in the form of
    `_pieces`, as sorted, disjoint closed intervals.

    On row y a piece holds the x from the ceiling of its highest lower bound
    to the floor of its lowest upper bound: an edge its one point when that
    is an integer.
    """
    return _merge((max([-((b * y - c) // a) for a, b, c in lows]),
                   min([(c - b * y) // a for a, b, c in ups]))
                  for lo, hi, lows, ups in pieces if lo <= y <= hi)


Window = tuple[Rational, Rational, Rational, Rational]

DEFAULT_WINDOW: Window = (-10, 10, -10, 10)
DEFAULT_STEP = Fraction(1, 4)


def _scan(f: BiPoly, g: BiPoly, window: Window, step: Rational
          ) -> tuple[dict[int, tuple[tuple[int, int], ...]], int, int]:
    """Common ghost points of the grid and of its half-step refinement, as
    nonempty rows {y: runs} in increasing y, with the scale that makes all
    their coordinates integers and the scaled half step.

    A run (first, last) stands for the columns first, first + half, ...,
    last of the half-step lattice; the runs of a row, a tuple, are strictly
    increasing and disjoint.  They are the common intervals of the row
    snapped to the lattice, never expanded, so a visited row costs
    O(runs), not O(hits).  When half > 1 two runs may sit one half step
    apart, snapped from two intervals with a gap of off-lattice integers
    between them.  CPython's garbage collector stops tracking a tuple of
    int pairs, so the rows of an output-bound pair do not lengthen its full
    passes.  Inputs must be nonzero (the zero polynomial is ghost
    everywhere)."""
    if f.is_zero or g.is_zero:
        raise ValueError("zero polynomial")
    bounds = [as_fraction(q) for q in (*window, step)]
    den, views = scaled([f._coeffs, g._coeffs])
    scale = 2 * lcm(den, *[q.denominator for q in bounds])
    # Each bound on the scale, in ints: scale is a multiple of its denominator.
    x0, x1, y0, y1, step_s = [q.numerator * (scale // q.denominator)
                              for q in bounds]
    if step_s <= 0 or x1 < x0 or y1 < y0:
        raise ValueError("bad window or step")
    half = step_s // 2
    # The pieces cover the half rows and columns that the refinement reaches
    # just outside the window.
    common = _meet(*(_pieces(v, scale // den, x0 - half, x1 + half,
                             y0 - half, y1 + half) for v in views))
    rows: dict[int, tuple[tuple[int, int], ...]] = {}

    def keep(r: int, reach: list, both: list) -> None:
        # The runs of half-step columns of `reach` where the row's values
        # are ghost: each common interval shrunk to the lattice points in it.
        runs = []
        for lo, hi in intersect_sorted(_merge(reach), both):
            lo += (x0 - lo) % half
            hi -= (hi - x0) % half
            if lo <= hi:
                runs.append((lo, hi))
        if runs:
            rows[r] = tuple(runs)

    # Each common interval of a base row holds a run [first, last] of step
    # columns; the refinement reaches [first - half, last + half] on the
    # rows b - half, b and b + half.  Only a candidate row can hold a run,
    # so the loop visits those and the base row after each, which fills the
    # half row in between.  The row before a skipped one is such a row after
    # a candidate, not a candidate itself, so it leaves `below` empty, as
    # the skipped rows would.  The candidates are the base rows a common
    # piece reaches; the pieces also reach the half rows outside [y0, y1].
    cand = {b for lo, hi in _merge((max(lo, y0), min(hi, y1))
                                   for lo, hi, *_ in common)
            for b in range(lo + (y0 - lo) % step_s, hi + 1, step_s)}
    below: list[tuple[int, int]] = []  # the reach of the base row below
    for b in sorted(cand | {c + step_s for c in cand}):
        both = _row_ghost(common, b) if b in cand else []
        runs = []
        for lo, hi in both:
            first = x0 - (x0 - max(lo, x0)) // step_s * step_s  # column >= lo
            last = min(hi, x1)
            if first <= last:
                runs.append((first - half, last - (last - x0) % step_s + half))
        if below or runs:
            keep(b - half, below + runs, _row_ghost(common, b - half))
        if runs:
            keep(b, runs, both)
        below = runs
    return rows, scale, half


def _cluster(rows: Mapping[int, tuple[tuple[int, int], ...]],
             half: int) -> tuple[int, int]:
    """Components and ordinary points of points on a half-step lattice.

    `rows` maps y to its runs, as `_scan` returns them.  Points at most
    three half steps apart in each coordinate are neighbors, and a point is
    ordinary when no other point lies within twelve.  A stretch, a maximal
    chain of runs of one row with gaps of at most three half steps, is
    connected; two stretches on rows at most three half steps apart are
    neighbors exactly when their extents, widened by three half steps,
    overlap.  The work is O(runs), with no step per point.  The stretches
    live in flat int lists, not one container each, which keeps the
    garbage collector's full passes short on output-bound pairs.
    """
    near, far = 3 * half, 12 * half
    firsts: list[int] = []  # the first x of each stretch
    lasts: list[int] = []  # and its last x
    row_stretches: dict[int, range] = {}  # indices of a row's, left to right
    for b, row in rows.items():
        start = len(lasts)
        for first, last in row:
            if len(lasts) > start and first - lasts[-1] <= near:
                lasts[-1] = last
            else:
                firsts.append(first)
                lasts.append(last)
        row_stretches[b] = range(start, len(lasts))

    parent = list(range(len(lasts)))
    linked = [False] * len(lasts)

    def find(u: int) -> int:
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    for b, ours in row_stretches.items():
        for d in (half, 2 * half, 3 * half):
            theirs = row_stretches.get(b + d, range(0))
            # Widened to [first, last + near], the stretches of one row stay
            # sorted and disjoint, so a two-pointer merge finds every overlap.
            u, v = ours.start, theirs.start
            while u < ours.stop and v < theirs.stop:
                if firsts[u] <= lasts[v] + near and \
                        firsts[v] <= lasts[u] + near:
                    linked[u] = linked[v] = True
                    parent[find(v)] = find(u)
                if lasts[u] < lasts[v]:
                    u += 1
                else:
                    v += 1

    components = sum(parent[u] == u for u in range(len(lasts)))
    # A lone point is ordinary only when no other point lies within twelve
    # half steps: hits strung along a shared curve piece of slope p/q, with
    # |p| and |q| bounded by the degree, land at most that far apart, and
    # such pieces are not isolated crossings.  A linked stretch has a point
    # within three half steps, so only unlinked one-point stretches are
    # tested, by counting the lattice points of the runs that overlap the
    # point's window on the 25 rows around it.
    ordinary = 0
    for b, ours in row_stretches.items():
        for u in ours:
            a = firsts[u]
            if a == lasts[u] and not linked[u]:
                lo, hi = a - far, a + far
                crowd = 0
                for d in range(-far, far + 1, half):
                    for first, last in rows.get(b + d, ()):
                        if first > hi:
                            break
                        if last >= lo:
                            crowd += (min(last, hi) - max(first, lo)) \
                                // half + 1
                ordinary += crowd == 1
    return components, ordinary


def _fractions(rows: Mapping[int, tuple[tuple[int, int], ...]], scale: int,
               half: int) -> list[tuple[Fraction, Fraction]]:
    """The points of `_scan`'s runs as Fractions, in (x, y) order.

    One pass over the rows lists the rows of each column, already in
    increasing y; only the distinct columns are sorted, and each distinct
    coordinate gets one Fraction, which x and y share.  This is the one
    O(hits) step of the probe.
    """
    memo = {b: Fraction(b, scale) for b in rows}
    cols: dict[int, list[Fraction]] = {}
    for b, row in rows.items():
        y = memo[b]
        for first, last in row:
            # A one-point run, as on a curve, builds no range: on an
            # output-bound curve that range cost more than the point.
            for a in (first,) if first == last else range(first, last + 1,
                                                             half):
                col = cols.get(a)
                if col is None:
                    cols[a] = [y]
                else:
                    col.append(y)
    out = []
    for a in sorted(cols):
        x = memo[a] if a in memo else Fraction(a, scale)
        for y in cols[a]:
            out.append((x, y))
    return out


def common_roots_sample(f: BiPoly, g: BiPoly, window: Window = DEFAULT_WINDOW,
                        step: Rational = DEFAULT_STEP) -> list[tuple[Fraction, Fraction]]:
    """Points of the window grid where both values are ghost.

    Exact integer arithmetic throughout; the base grid is refined once at
    half step around every hit.  Inputs must be nonzero (the zero
    polynomial is ghost everywhere).
    """
    return _fractions(*_scan(f, g, window, step))


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
    steps, plus a look at the runs of the 25 rows around each lone point.
    """
    window = tuple(as_fraction(w) for w in window)
    step = as_fraction(step)
    rows, scale, half = _scan(f, g, window, step)
    components, ordinary = _cluster(rows, half)
    m, n = f.total_degree, g.total_degree
    bound = m * n
    return BezoutReport(
        m=m, n=n, bound=bound, hits=tuple(_fractions(rows, scale, half)),
        component_count=components, ordinary_count=ordinary,
        bound_holds=ordinary <= bound,
        window=window, step=step)
