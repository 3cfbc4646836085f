"""Resultants via permanents of Sylvester matrices.

The resultant of two polynomials is the permanent (determinant with all
signs positive, which is the right analogue here since subtraction does
not exist) of their Sylvester matrix.  Its headline property: the
resultant lies in the ghost ideal exactly when the two polynomials share
a tangible root, provided at most one of them is divisible by x.  The
`resultant` entry point therefore works with canonical full coefficient
vectors and factors powers of x out; `decide` restores the x | f, x | g
bookkeeping on top of it.

`resultant` is the one production route.  A `Poly` keeps its canonical
form together with that form's integer image (`poly._image_of`): a scale
D and each slot as (magnitude * D, ghost), built from the hull that
`canonical_full` takes.  `_joint` puts the two images on one scale, one
lcm and a product per slot only on a side whose D differs, and the
permanent is taken with an exact O(k^3) engine, `_assignment`: a
maximum-weight assignment for the magnitude, and a test of whether the
maximal permutation is unique for the layer.  The engine reads the band
as one sparse {column: entry} row each.  Only `sylvester` and raw
(canonical=False) vectors still read the coefficient maps (`_maps`),
scale them with `sparse.scaled` and lay the whole band out (`_band`).

The engine is warm-started from the max-plus product P = f*g of the two
scaled vectors.  The Newton polygon of f*g is the Minkowski sum of those
of f and g, so for canonical (concave) vectors P is a merge of their two
slope sequences; raw vectors are not concave and take the full
convolution, `sparse._convolve`.  For canonical vectors of degrees m and
n, F and G their scaled magnitudes and k = m + n, the column potentials
-P_c are an optimal dual of the band:
- f-row i's best reduced value is -G_i, and g-row q's is -F_q;
- the sum of P_c over c < k, less G_i over i < n and F_q over q < m, is
  n F_m + m G_n + the sum of max(a, b) over the m n pairs of corner roots
  a of f and b of g: the product-rule magnitude, which `resultant_nu`
  takes directly;
- column c goes to the row whose edge of the merged Newton-polygon path
  leaves c.  That is the highest tight column of its row, so the warm
  start matches every row unless f and g share a corner slope.
By complementary slackness every maximal permutation then uses only
tight entries, those of reduced value 0, and so does the test for a
second one; the other entries change neither the magnitude nor the layer.
So the canonical route hands the engine the tight entries alone,
`_tight_band`: f-row t holds F_s at column s + t when F_s + G_t =
P_{s+t}, which are the states of the slope merge together with a
rectangle wherever f and g share a corner slope.  The band it reads has
O(m + n + the sum of those rectangles) entries, against n (m + 1) +
m (n + 1) for the whole band.  A Zero from the engine there would mean the
argument failed, and is raised as a failed invariant.

`decide` reads the same two images: the engine on them, and the root
sweep `poly._root_runs` of each, intersected as ints.

`_permanent_assignment` feeds the same engine a matrix of Elements, with
the column maxima of Jonker and Volgenant (1987) as potentials.
`resultant_nu` is the ghost value by the corner-root product rule, on
the joint images in O(mn), and `resultant_nu_assignment` the ghost image
of `resultant`.

Every route here runs in polynomial time.  The slow oracle routes that
the checks compare with these, the subset-DP `permanent` over any
semiring among them, live in `checks`.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .element import Element, ZERO
from .intervals import NEG_INF, Endpoint, RootSet, intersect_sorted
from .poly import Poly, _image_of, _intervals, _root_runs, canonical_full
from .record import Record
from .sparse import _convolve, scaled

Grid = list[list]


def _maps(f: Poly, g: Poly, canonical: bool) -> list[dict]:
    """The two sides as ascending {slot: nonzero coefficient} maps: the
    canonical full vectors, power of x stripped, or the raw coefficients."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial")
    if canonical:
        return [dict(enumerate(canonical_full(p).coeffs)) for p in (f, g)]
    return [dict(sorted(p.items())) for p in (f, g)]


def _band(fv: dict, gv: dict) -> list[dict]:
    """The Sylvester rows of two ascending maps as {column: entry} dicts.

    For top slots m and n there are n rows carrying fv, then m rows
    carrying gv, each shifted one column right of the one before, every
    row in ascending column order.  Entries may be any values: Elements,
    `scaled` pairs, maps in x.  A constant side gives a diagonal band, two
    constants the empty one.
    """
    m, n = next(reversed(fv)), next(reversed(gv))
    return ([{i + s: c for s, c in fv.items()} for i in range(n)]
            + [{i + s: c for s, c in gv.items()} for i in range(m)])


def sylvester(f: Poly, g: Poly) -> Grid:
    """Sylvester matrix of the canonical full vectors, both of degree >= 1
    once the power of x is stripped."""
    fv, gv = _maps(f, g, True)
    if len(fv) == 1 or len(gv) == 1:
        raise ValueError("sylvester needs both degrees >= 1 after the power "
                         "of x is stripped; resultant() handles constants "
                         "directly")
    rows = _band(fv, gv)
    return [[row.get(j, ZERO) for j in range(len(rows))] for row in rows]


def _permanent_assignment(rows: Grid) -> Element:
    """Permanent of a square matrix of Elements in O(k^3).

    The grid goes on one integer scale (`scaled`) once, and its rows,
    Zero entries left out, go to `_assignment`, the engine that
    `resultant` runs on its Sylvester band.  The checks, the corpus's
    `permanent` entries and the tests call this adapter.
    """
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("permanent requires a square matrix")
    return _assignment(*scaled([{j: e for j, e in enumerate(row)
                                 if e.mag is not None} for row in rows]))


def _assignment(scale: int, rows: list[dict], product: list | None = None
                ) -> Element:
    """Permanent of a square matrix given as `scaled` rows, in O(k^3).

    Row i maps each column j of a non-Zero entry to (magnitude * scale,
    ghost), in ascending order of j; the ints are exact, so nothing can
    overflow.  The magnitude of the permanent is the largest total
    magnitude of a permutation that avoids Zero entries: a maximum-weight
    assignment, found as shortest augmenting paths with row and column
    potentials (Kuhn 1955) on cost = -magnitude.  The value is ZERO when
    no permutation avoids the Zero entries.

    The search is warm-started as in Jonker and Volgenant ("A shortest
    augmenting path algorithm for dense and sparse linear assignment
    problems", Computing 38, 1987): each row's potential is its smallest
    reduced cost, which keeps any column potentials feasible, and each
    row takes its highest free column where its reduced cost is 0.  Only
    the rows left over run a Dijkstra search, which holds just the
    columns it has reached and moves the potentials once, on the rows it
    scanned and the columns it settled.

    A column's potential is its smallest cost (minus its largest entry)
    unless `product` is given.  `resultant` passes the magnitudes P_c of
    the scaled max-plus product P = f*g of the two vectors of its band,
    by column, and column c then starts at -P_c; a column where P has no
    term (None), possible only for raw vectors with Zero coefficients,
    keeps minus its largest entry.  For canonical vectors these
    potentials are an optimal dual (module docstring).

    The value is ghost when two permutations reach the maximum, or when
    the only one that does uses a ghost entry.  Every maximal permutation
    uses only entries that are tight under any optimal potentials, so a
    second one exists exactly when the tight entries hold a cycle that
    alternates with the one found (Butkovic, Max-linear Systems, 2010).
    """
    size = len(rows)
    if not all(rows):
        return ZERO
    # Reduced cost -m - u[i] - v[j] >= 0, and 0 on matched entries.
    v: list = ([None] * size if product is None
               else [None if p is None else -p for p in product[:size]])
    if None in v:
        # A term of the product at c has an entry of the band in column c,
        # so only the other columns can be empty.
        top: list = [None] * size
        for row in rows:
            for j, (m, _) in row.items():
                t = top[j]
                if t is None or m > t:
                    top[j] = m
        if None in top:
            return ZERO
        v = [-t if p is None else p for p, t in zip(v, top)]
    u = []
    col = [-1] * size
    owner = [-1] * size
    for i, row in enumerate(rows):
        best = max([m + v[j] for j, (m, _) in row.items()])
        u.append(-best)
        for j, (m, _) in reversed(row.items()):
            if owner[j] < 0 and m + v[j] == best:
                owner[j] = i
                col[i] = j
                break
    for s in range(size):
        if col[s] >= 0:
            continue
        us = u[s]
        dist = {j: -m - us - v[j] for j, (m, _) in rows[s].items()}
        via = dict.fromkeys(dist, s)
        settled: dict[int, int] = {}
        while True:
            if not dist:
                # No augmenting path: every permutation meets a Zero entry.
                return ZERO
            j = min(dist, key=dist.get)
            d = dist.pop(j)
            i = owner[j]
            if i < 0:
                break
            settled[j] = d
            base = d - u[i]
            for j2, (m, _) in rows[i].items():
                if j2 not in settled:
                    nd = base - m - v[j2]
                    cur = dist.get(j2)
                    if cur is None or nd < cur:
                        dist[j2] = nd
                        via[j2] = i
        u[s] += d
        for j2, dj in settled.items():
            u[owner[j2]] += d - dj
            v[j2] -= d - dj
        while True:
            i = via[j]
            owner[j] = i
            col[i], j = j, col[i]
            if i == s:
                break
    # Row i points to row r when i could take r's column at no loss; a
    # cycle is a second maximal permutation.  Peel rows nothing points to.
    succ = [[owner[j] for j, (m, _) in rows[i].items()
             if j != col[i] and -m == u[i] + v[j]] for i in range(size)]
    indegree = [0] * size
    for targets in succ:
        for r in targets:
            indegree[r] += 1
    free = [i for i in range(size) if indegree[i] == 0]
    peeled = 0
    while free:
        peeled += 1
        for r in succ[free.pop()]:
            indegree[r] -= 1
            if indegree[r] == 0:
                free.append(r)
    is_ghost = peeled < size or any(rows[i][col[i]][1] for i in range(size))
    total = sum(rows[i][col[i]][0] for i in range(size))
    return Element(Fraction(total, scale), is_ghost)


def _joint(f: Poly, g: Poly) -> tuple[int, dict, dict]:
    """The integer images of the two canonical forms (`poly._image_of`),
    power of x stripped, on one scale: one lcm of the two scales, and
    one product per slot only on a side whose scale differs from it."""
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial")
    (df, fv), (dg, gv) = _image_of(f), _image_of(g)
    if df == dg:
        return df, fv, gv
    scale = lcm(df, dg)
    return scale, _times(fv, scale // df), _times(gv, scale // dg)


def _times(view: dict, k: int) -> dict:
    if k == 1:
        return view
    return {s: (m * k, ghost) for s, (m, ghost) in view.items()}


def _tight_band(fv: dict, gv: dict) -> tuple[list[dict], list[int]]:
    """The tight rows of the band of two canonical images of one scale,
    and the magnitudes P_0 .. P_{m+n} of their max-plus product, in
    O(m + n + the tie rectangles).

    A canonical form's magnitudes are concave, so P_c, the largest F_s +
    G_t with s + t = c, is the Minkowski sum of the two Newton polygons:
    start at F_0 + G_0 and take the slope steps of both sides in
    decreasing order, a merge of two sorted sequences.  The pairs (s, t)
    with F_s + G_t = P_{s+t} are the states (s, t) of that merge, and
    where a run of equal slopes of f, steps i+1 .. i2, meets a run of the
    same slope of g, steps j+1 .. j2, the whole rectangle [i..i2] x
    [j..j2].

    f-row t holds F_s at column s + t, and g-row s holds G_t there,
    exactly for those pairs.  A step of f from (i, j) adds to f-row j and
    starts g-row i + 1, a step of g the other way round, and a rectangle
    adds to both and starts one row per further slot.  The columns of a
    row only grow along the merge, so each comes out in ascending order.
    The rows are `_band`'s, in its order, with only these entries.
    """
    fl, gl = list(fv.values()), list(gv.values())
    fm = [mag for mag, _ in fl]
    gm = [mag for mag, _ in gl]
    m, n = len(fm) - 1, len(gm) - 1
    df = [b - a for a, b in zip(fm, fm[1:])] + [NEG_INF]
    dg = [b - a for a, b in zip(gm, gm[1:])] + [NEG_INF]
    frows, grows = [{0: fl[0]}], [{0: gl[0]}]
    product = [fm[0] + gm[0]]
    i = j = 0
    while i < m or j < n:
        a, b = df[i], dg[j]
        if a > b:
            i += 1
            frows[j][i + j] = fl[i]
            grows.append({i + j: gl[j]})
            product.append(fm[i] + gm[j])
        elif b > a:
            j += 1
            grows[i][i + j] = gl[j]
            frows.append({i + j: fl[i]})
            product.append(fm[i] + gm[j])
        else:
            i2, j2 = i + 1, j + 1
            while df[i2] == a:
                i2 += 1
            while dg[j2] == a:
                j2 += 1
            frows[j].update({s + j: fl[s] for s in range(i + 1, i2 + 1)})
            grows[i].update({i + t: gl[t] for t in range(j + 1, j2 + 1)})
            frows += [{s + t: fl[s] for s in range(i, i2 + 1)}
                      for t in range(j + 1, j2 + 1)]
            grows += [{s + t: gl[t] for t in range(j, j2 + 1)}
                      for s in range(i + 1, i2 + 1)]
            product += [fm[s] + gm[j] for s in range(i + 1, i2 + 1)]
            product += [fm[i2] + gm[t] for t in range(j + 1, j2 + 1)]
            i, j = i2, j2
    # The last f-row and g-row, t = n and s = m, are not rows of the band.
    return frows[:n] + grows[:m], product


def _solve(scale: int, fv: dict, gv: dict, rows: list[dict], product: list
           ) -> Element:
    """The permanent of a band of two scaled maps, given as its rows and
    warm-started from their product's magnitudes; two constants give One,
    ghost when both are ghost."""
    if not rows:
        return Element(0, fv[0][1] and gv[0][1])
    return _assignment(scale, rows, product)


def _solve_tight(scale: int, fv: dict, gv: dict) -> Element:
    """The resultant of two canonical images of one scale, from the tight
    entries of their band alone (`_tight_band`)."""
    value = _solve(scale, fv, gv, *_tight_band(fv, gv))
    # The tight entries hold every maximal permutation, so Zero here means
    # the optimal-dual argument failed.  Raised rather than asserted, so
    # that -O keeps the check.
    if value.is_zero:
        raise AssertionError(("no permutation among the tight entries",
                              fv, gv))
    return value


def resultant(f: Poly, g: Poly, canonical: bool = True) -> Element:
    """Permanent of the Sylvester matrix of f and g, in polynomial time.

    With canonical=True (the default) both inputs are replaced by their
    canonical full coefficient vectors with the power of x stripped, so the
    value is an invariant of the functions; ghost or zero output then means
    a shared tangible root.  With canonical=False the raw coefficients are
    used as written.  A constant side of value c against a side of degree
    d gives c^d.  Two constants give One, ghost when both are ghost: a
    ghost constant has every tangible root and a tangible one none, so the
    two share a root exactly when both are ghost.  The engine reads the
    tight entries of the band of the two integer images, or the whole
    sparse band of the two `scaled` raw maps, and starts from their
    max-plus product (module docstring).
    """
    if canonical:
        return _solve_tight(*_joint(f, g))
    scale, (fv, gv) = scaled(_maps(f, g, False))
    product = _convolve(fv, gv)
    return _solve(scale, fv, gv, _band(fv, gv),
                  [product[c][0] if c in product else None
                   for c in range(max(product) + 1)])


def resultant_nu(f: Poly, g: Poly) -> Element:
    """Ghost value of the resultant, by the corner-root product rule.

    On the canonical vectors of degrees m and n, with F and G their
    coefficient magnitudes and a, b their corner roots, the magnitude is
    n F_m + m G_n + the sum of max(a, b) over all m n pairs: the value of
    the optimal dual that `_assignment` starts from (module docstring).
    It is taken on the two integer images, with one Fraction at the end,
    in O(mn).  Agrees with nu(resultant(f, g)).
    """
    scale, fs, gs = _joint(f, g)
    fm, gm = [[mag for mag, _ in view.values()] for view in (fs, gs)]
    m, n = len(fm) - 1, len(gm) - 1
    fr = [a - b for a, b in zip(fm, fm[1:])]
    gr = [a - b for a, b in zip(gm, gm[1:])]
    total = n * fm[m] + m * gm[n] + sum([max(a, b) for a in fr for b in gr])
    return Element(Fraction(total, scale), True)


def resultant_nu_assignment(f: Poly, g: Poly) -> Element:
    """Ghost value of the resultant, by a maximum-weight assignment.

    The magnitude of a permanent is the largest total magnitude of any
    permutation avoiding zero entries, which is an assignment problem; this
    is the ghost image of `resultant`, whose engine solves it exactly.
    """
    return resultant(f, g).nu()


def semitangible_blocks(f: Poly) -> list[Poly]:
    """Cut the canonical full form at its tangible slots.

    Each block is normalised so that the magnitude of its leading
    coefficient is 0; the product of the blocks times the tangible lead
    and the stripped power of x recovers f up to e-equivalence.  Block
    interiors are ghosts, so a block is semitangibly full, except that the
    lowest block may have a ghost constant and the top block a ghost lead.
    """
    full = canonical_full(f)
    coeffs = full.coeffs
    slots = [i for i, c in enumerate(coeffs) if c.is_tangible]
    cuts = sorted({0, full.hi, *slots})
    blocks: list[Poly] = []
    for p, q in zip(cuts, cuts[1:]):
        divisor = coeffs[q].hat()
        blocks.append(Poly({i - p: coeffs[i] / divisor for i in range(p, q + 1)}))
    if not blocks:
        blocks.append(Poly.constant(coeffs[0] / coeffs[0].hat()))
    return blocks


class RelPrimeReport(Record):
    """Outcome of the relative primeness decision."""

    __slots__ = ("resultant", "relatively_prime", "common", "witness")

    resultant: Element
    relatively_prime: bool
    common: RootSet
    witness: Endpoint | None


def decide(f: Poly, g: Poly) -> RelPrimeReport:
    """Decide relative primeness and report a common tangible root if any.

    The resultant is taken on canonical vectors with powers of x stripped;
    the inputs are relatively prime exactly when it is tangible.  Tangible
    roots are finite points, so a shared factor of x does not by itself
    spoil primeness (the common root set still records the bottom point in
    its flag).  The witness is the leftmost finite point of the common
    root set, None when there is none.

    Both sides read the two integer images on one scale: the engine, and
    the root sweep of each (`poly._root_runs`), whose runs are intersected
    as ints; a Fraction is made only for each endpoint of the result.
    """
    for p in (f, g):
        if p.is_zero or p.degree == 0:
            raise ValueError("relative primeness needs nonconstant polynomials")
    scale, fv, gv = _joint(f, g)
    r = _solve_tight(scale, fv, gv)
    common = RootSet(
        _intervals(intersect_sorted(_root_runs(fv), _root_runs(gv)), scale),
        all(canonical_full(p).shift > 0 or v[0][1]
            for p, v in ((f, fv), (g, gv))))
    # Root sharing and non-tangible resultant must agree; a failure here
    # is a bug in one of the two routes (the engine's uniqueness test and
    # the root sweep read the canonical forms independently).
    # Raised rather than asserted, so that -O keeps the check and
    # selfcheck reports it as a failure.
    if r.in_ghost_ideal != (not common.intervals.is_empty):
        raise AssertionError(("resultant and root sets disagree",
                              f, g, r, common))
    return RelPrimeReport(r, r.is_tangible, common,
                          common.intervals.leftmost_finite())
