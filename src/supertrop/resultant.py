"""Resultants via permanents of Sylvester matrices.

The resultant of two polynomials is the permanent (determinant with all
signs positive, which is the right analogue here since subtraction does
not exist) of their Sylvester matrix.  Its headline property: the
resultant lies in the ghost ideal exactly when the two polynomials share
a tangible root, provided at most one of them is divisible by x.  The
`resultant` entry point therefore works with canonical full coefficient
vectors and factors powers of x out; `decide` restores the x | f, x | g
bookkeeping on top of it.

`resultant` is the one production route.  It takes the permanent with an
exact O(k^3) engine: a maximum-weight assignment for the magnitude and a
test of whether the maximal permutation is unique for the layer.
`resultant_nu` is its ghost value by the corner-root product rule, in
O(mn), and `resultant_nu_assignment` the ghost image of `resultant`.

Every route here runs in polynomial time.  The slow oracle routes that
the checks compare with these, the subset-DP `permanent` over any
semiring among them, live in `checks`.
"""

from __future__ import annotations

from fractions import Fraction

from .element import Element, ZERO
from .intervals import Endpoint, RootSet
from .poly import Poly, _corners, canonical_full, tangible_roots
from .record import Record
from .sparse import scaled

Grid = list[list]


def sylvester_vectors(fvec, gvec, zero=ZERO) -> Grid:
    """Sylvester matrix from ascending coefficient vectors.

    For deg f = m and deg g = n the matrix has n rows carrying f's
    coefficients followed by m rows carrying g's, each row shifted one
    column to the right of the previous one.  Entries may be any semiring
    values; missing positions are filled with the additive zero.  A
    constant side gives a diagonal matrix, two constants the empty one.
    """
    if not fvec or not gvec:
        raise ValueError("sylvester_vectors needs nonempty vectors")
    m, n = len(fvec) - 1, len(gvec) - 1
    rows: Grid = []
    for i in range(n):
        rows.append([zero] * i + list(fvec) + [zero] * (n - 1 - i))
    for j in range(m):
        rows.append([zero] * j + list(gvec) + [zero] * (m - 1 - j))
    return rows


def sylvester(f: Poly, g: Poly) -> Grid:
    """Sylvester matrix of the canonical full vectors, both of degree >= 1
    once the power of x is stripped."""
    fv, gv = _vectors(f, g, True)
    if len(fv) == 1 or len(gv) == 1:
        raise ValueError("sylvester needs both degrees >= 1 after the power "
                         "of x is stripped; resultant() handles constants "
                         "directly")
    return sylvester_vectors(fv, gv)


def _permanent_assignment(rows: Grid) -> Element:
    """Permanent of a square matrix of Elements in O(k^3).

    The magnitude of the permanent is the largest total magnitude of a
    permutation that avoids Zero entries: a maximum-weight assignment,
    found by the Hungarian method (Kuhn 1955) as shortest augmenting paths
    with row and column potentials, on the `scaled` magnitudes: Python
    ints, so nothing can overflow.  Zero entries are missing edges, and
    the value is ZERO when no permutation avoids them.

    The value is ghost when two permutations reach the maximum, or when
    the only one that does uses a ghost entry.  Every maximal permutation
    uses only entries that are tight under the final potentials, so a
    second one exists exactly when the tight entries hold a cycle that
    alternates with the one found (Butkovic, Max-linear Systems, 2010).
    """
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("permanent requires a square matrix")
    # Minimise cost = -scaled magnitude, read off the view.  Columns are
    # 1..size; column 0 is the root of each search and holds the row being
    # added.
    scale, views = scaled([{j: e for j, e in enumerate(row, 1)
                            if e.mag is not None} for row in rows])
    u = [0] * size
    v = [0] * (size + 1)
    owner = [-1] * (size + 1)
    for i in range(size):
        owner[0] = i
        dist: list[int | None] = [None] * (size + 1)
        prev = [0] * (size + 1)
        used = [False] * (size + 1)
        j0 = 0
        while owner[j0] != -1:
            used[j0] = True
            i0 = owner[j0]
            neg_u = -u[i0]
            for j, (m, _) in views[i0].items():
                d = neg_u - m - v[j]
                if not used[j] and (dist[j] is None or d < dist[j]):
                    dist[j] = d
                    prev[j] = j0
            delta, j0 = min(((d, j) for j, d in enumerate(dist)
                             if d is not None and not used[j]),
                            default=(None, 0))
            if delta is None:
                # No augmenting path: every permutation meets a Zero entry.
                return ZERO
            for j in range(size + 1):
                if used[j]:
                    u[owner[j]] += delta
                    v[j] -= delta
                elif dist[j] is not None:
                    dist[j] -= delta
        while j0:
            owner[j0] = owner[prev[j0]]
            j0 = prev[j0]
    col = [0] * size
    for j in range(1, size + 1):
        col[owner[j]] = j
    # Row i points to row r when i could take r's column at no loss; a
    # cycle is a second maximal permutation.  Peel rows nothing points to.
    succ = [[owner[j] for j, (m, _) in views[i].items()
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
    is_ghost = peeled < size or any(views[i][col[i]][1] for i in range(size))
    total = sum(views[i][col[i]][0] for i in range(size))
    return Element(Fraction(total, scale), is_ghost)


def _vectors(f: Poly, g: Poly, canonical: bool) -> tuple[tuple, tuple]:
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial")
    if canonical:
        return canonical_full(f).coeffs, canonical_full(g).coeffs
    return tuple(f.coeff_vector()), tuple(g.coeff_vector())


def resultant(f: Poly, g: Poly, canonical: bool = True) -> Element:
    """Permanent of the Sylvester matrix of f and g, in polynomial time.

    With canonical=True (the default) both inputs are replaced by their
    canonical full coefficient vectors with the power of x stripped, so the
    value is an invariant of the functions; ghost or zero output then means
    a shared tangible root.  With canonical=False the raw dense coefficient
    vectors are used as written.  A constant side of value c against a side
    of degree d gives c^d, and two constants give One.
    """
    return _permanent_assignment(sylvester_vectors(*_vectors(f, g, canonical)))


def _product_rule(fv, gv) -> Element:
    """lead_f^n * lead_g^m * prod over corner-root pairs (a, b) of (a + b),
    for full coefficient vectors of degrees m and n.  Taken on magnitudes:
    a pair adds max(a, b), and a tie a = b makes the value ghost."""
    m, n = len(fv) - 1, len(gv) - 1
    ca, cb = _corners(fv), _corners(gv)
    return fv[m] ** n * gv[n] ** m * Element(
        sum([max(a, b) for a in ca for b in cb], Fraction(0)),
        not set(ca).isdisjoint(cb))


def resultant_nu(f: Poly, g: Poly) -> Element:
    """Ghost value of the resultant: the product rule on the canonical
    vectors, pushed to the ghost layer.  Agrees with nu(resultant(f, g))."""
    return _product_rule(*_vectors(f, g, True)).nu()


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
    """
    for p in (f, g):
        if p.is_zero or p.degree == 0:
            raise ValueError("relative primeness needs nonconstant polynomials")
    r = resultant(f, g)
    common = tangible_roots(f).intersect(tangible_roots(g))
    # Root sharing and non-tangible resultant must agree; a failure here
    # is a bug in one of the two routes (the engine's uniqueness test and
    # the root-set intersection read the canonical forms independently).
    # Raised rather than asserted, so that -O keeps the check and
    # selfcheck reports it as a failure.
    if r.in_ghost_ideal != (not common.intervals.is_empty):
        raise AssertionError(("resultant and root sets disagree",
                              f, g, r, common))
    return RelPrimeReport(r, r.is_tangible, common,
                          common.intervals.leftmost_finite())
