"""Resultants via permanents of Sylvester matrices.

The resultant of two polynomials is the permanent (determinant with all
signs positive, which is the right analogue here since subtraction does
not exist) of their Sylvester matrix.  Its headline property: the
resultant lies in the ghost ideal exactly when the two polynomials share
a tangible root, provided at most one of them is divisible by x.  The
`resultant` entry point therefore works with canonical full coefficient
vectors and factors powers of x out; `decide` restores the x | f, x | g
bookkeeping on top of it.

`resultant` takes the permanent with an exact O(k^3) engine: a
maximum-weight assignment for the magnitude and a test of whether the
maximal permutation is unique for the layer.  Independent routes to the
same value live here on purpose, as its oracles and cross-checks:

* `permanent`            generic column-subset dynamic program, O(2^k),
* `resultant_dp`         `resultant` through `permanent`,
* `permanent_oracle`     brute force over permutations (small sizes),
* `resultant_recursive`  constant-term peeling recursion,
* `resultant_tangible_product`  closed form for tangible inputs,
* `resultant_quadratic`  closed form against a monic quadratic,
* `resultant_nu`         ghost value by the product formula on hatted roots.

`resultant_nu_assignment` is the ghost image of `resultant`.  `METHODS`
names the resultant routes for the CLI and the example corpus.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import lcm

from .element import Element, ONE, ZERO, tangible
from .intervals import Endpoint, RootSet
from .poly import Poly, canonical_full, tangible_roots
from .record import Record

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


def sylvester(f: Poly, g: Poly, canonical: bool = True) -> Grid:
    fv, gv = _vectors(f, g, canonical)
    if len(fv) == 1 or len(gv) == 1:
        raise ValueError("sylvester needs both degrees >= 1; "
                         "resultant() handles constants directly")
    return sylvester_vectors(fv, gv)


def permanent(rows: Grid, zero=ZERO, one=ONE):
    """Permanent over any commutative semiring, via a subset DP.

    Processes one row at a time; the state is the set of columns already
    matched, so the cost is O(2^k * nnz) for a k * k matrix.  Entries only
    need `+` and `*`.
    """
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("permanent requires a square matrix")
    if size == 0:
        return one
    prepared = []
    for row in rows:
        entries = [(1 << j, e) for j, e in enumerate(row) if e != zero]
        if not entries:
            return zero
        prepared.append(entries)
    dp = {0: one}
    for entries in prepared:
        nxt: dict[int, object] = {}
        for mask, acc in dp.items():
            for bit, e in entries:
                if mask & bit:
                    continue
                key = mask | bit
                term = acc * e
                old = nxt.get(key)
                nxt[key] = term if old is None else old + term
        dp = nxt
        if not dp:
            return zero
    return dp.get((1 << size) - 1, zero)


def permanent_oracle(rows: Grid, zero=ZERO, one=ONE):
    """Sum over all permutations directly.  Only for small matrices."""
    size = len(rows)
    if size > 8:
        raise ValueError("oracle permanent limited to size 8")
    if size == 0:
        return one
    total = zero
    for perm in itertools.permutations(range(size)):
        term = one
        for i, j in enumerate(perm):
            term = term * rows[i][j]
            if term == zero:
                break
        total = total + term
    return total


def _permanent_assignment(rows: Grid) -> Element:
    """Permanent of a square matrix of Elements in O(k^3).

    The magnitude of the permanent is the largest total magnitude of a
    permutation that avoids Zero entries: a maximum-weight assignment,
    found by the Hungarian method (Kuhn 1955) as shortest augmenting paths
    with row and column potentials.  Magnitudes are scaled to Python ints
    by the lcm of their denominators, so nothing can overflow, and Zero
    entries are missing edges.  The value is ZERO when no permutation
    avoids them.

    The value is ghost when two permutations reach the maximum, or when
    the only one that does uses a ghost entry.  Every maximal permutation
    uses only entries that are tight under the final potentials, so a
    second one exists exactly when the tight entries hold a cycle that
    alternates with the one found (Butkovic, Max-linear Systems, 2010).
    """
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("permanent requires a square matrix")
    scale = lcm(*(e.mag.denominator for row in rows for e in row
                  if e.mag is not None))
    # Minimise cost = -scaled magnitude.  Columns are 1..size; column 0 is
    # the root of each search and holds the row being added.
    cost = [{j: -(e.mag.numerator * (scale // e.mag.denominator))
             for j, e in enumerate(row, 1) if e.mag is not None}
            for row in rows]
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
            for j, c in cost[i0].items():
                d = c - u[i0] - v[j]
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
    succ = [[owner[j] for j, c in cost[i].items()
             if j != col[i] and c == u[i] + v[j]] for i in range(size)]
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
    is_ghost = peeled < size or any(rows[i][col[i] - 1].is_ghost
                                    for i in range(size))
    total = -sum(cost[i][col[i]] for i in range(size))
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


def resultant_dp(f: Poly, g: Poly, canonical: bool = True) -> Element:
    """`resultant` through the generic subset DP `permanent`, in O(2^(m+n)).

    Same inputs and conventions as `resultant`; kept as its oracle.
    """
    return permanent(sylvester_vectors(*_vectors(f, g, canonical)))


def resultant_nu(f: Poly, g: Poly) -> Element:
    """Ghost value of the resultant, via the product formula on hatted roots.

    Both inputs are canonicalized; the corner roots are read off with layers
    forgotten and fed to the tangible product formula, and the result is
    pushed to the ghost layer.  Agrees with nu(resultant(f, g)) always.
    """
    fv, gv = _vectors(f, g, True)
    m, n = len(fv) - 1, len(gv) - 1
    if n == 0:
        return (gv[0] ** m).nu()
    if m == 0:
        return (fv[0] ** n).nu()
    out = fv[m].hat() ** n * gv[n].hat() ** m
    f_roots = [fv[i - 1].mag - fv[i].mag for i in range(1, m + 1)]
    g_roots = [gv[j - 1].mag - gv[j].mag for j in range(1, n + 1)]
    for a in f_roots:
        for b in g_roots:
            out = out * tangible(max(a, b))
    return out.nu()


def resultant_nu_assignment(f: Poly, g: Poly, canonical: bool = True) -> Element:
    """Ghost value of the resultant, by a maximum-weight assignment.

    The magnitude of a permanent is the largest total magnitude of any
    permutation avoiding zero entries, which is an assignment problem; this
    is the ghost image of `resultant`, whose engine solves it exactly.
    """
    return resultant(f, g, canonical).nu()


def resultant_recursive(f: Poly, g: Poly) -> Element:
    """Resultant by peeling constant terms.

    Requires both inputs full with nonzero constant term.  Writing f^(k)
    for the polynomial whose coefficients are those of f from slot k up,
    the value satisfies

        res(f, g) = alpha_0 * res(f, g^(1)) + beta_0 * res(f^(1), g)

    with closed forms against linear and constant arguments as base cases.
    """
    for p in (f, g):
        if p.is_zero or not p.is_full() or p.ldeg != 0:
            raise ValueError("recursive resultant needs full polynomials "
                             "with nonzero constant term")
    return _res_rec(tuple(f.coeff_vector()), tuple(g.coeff_vector()))


def _res_rec(fv: tuple, gv: tuple) -> Element:
    m, n = len(fv) - 1, len(gv) - 1
    if n == 0:
        return gv[0] ** m
    if m == 0:
        return fv[0] ** n
    if n == 1:
        total = ZERO
        for i, a in enumerate(fv):
            total = total + a * gv[0] ** i * gv[1] ** (m - i)
        return total
    if m == 1:
        total = ZERO
        for j, b in enumerate(gv):
            total = total + b * fv[0] ** j * fv[1] ** (n - j)
        return total
    return fv[0] * _res_rec(fv, gv[1:]) + gv[0] * _res_rec(fv[1:], gv)


def resultant_tangible_product(f: Poly, g: Poly) -> Element:
    """Product formula for full tangible polynomials.

    res(f, g) = lead_f^n * lead_g^m * prod over all corner root pairs of
    (a_i + b_j); a tie a_i = b_j is what makes the value ghost.
    """
    for p in (f, g):
        if p.is_zero or not p.is_full() or p.ldeg != 0 or not p.all_tangible():
            raise ValueError("product rule needs full tangible polynomials "
                             "with nonzero constant term")
    fv, gv = tuple(f.coeff_vector()), tuple(g.coeff_vector())
    m, n = len(fv) - 1, len(gv) - 1
    out = fv[m] ** n * gv[n] ** m
    f_roots = [fv[i - 1].mag - fv[i].mag for i in range(1, m + 1)]
    g_roots = [gv[j - 1].mag - gv[j].mag for j in range(1, n + 1)]
    for a in f_roots:
        for b in g_roots:
            out = out * (tangible(a) + tangible(b))
    return out


def resultant_quadratic(f: Poly, g: Poly) -> Element:
    """Closed form against a monic quadratic g = x^2 + beta1 x + beta0.

    Requires f full with nonzero constant term and the quadratic's corner
    roots ordered, i.e. 2 mag(beta1) >= mag(beta0).  Unrolls the peeling
    recursion in closed form:

        res(f, g) = sum over k < m of alpha_k beta0^k f^(k)(beta1)
                    + beta0^m alpha_m^2.
    """
    if f.is_zero or not f.is_full() or f.ldeg != 0 or f.degree < 1:
        raise ValueError("needs f full of degree >= 1 with nonzero constant term")
    if g.degree != 2 or g.coeff(2) != ONE or not g.is_full() or g.ldeg != 0:
        raise ValueError("needs g a monic full quadratic")
    b0, b1 = g.coeff(0), g.coeff(1)
    if 2 * b1.mag < b0.mag:
        raise ValueError("quadratic corner roots out of order")
    fv = tuple(f.coeff_vector())
    m = len(fv) - 1
    total = b0 ** m * fv[m] ** 2
    for k in range(m):
        tail = ZERO
        for i in range(k, m + 1):
            tail = tail + fv[i] * b1 ** (i - k)
        total = total + fv[k] * b0 ** k * tail
    return total


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

    def __init__(self, resultant: Element, relatively_prime: bool,
                 common: RootSet, witness: Endpoint | None):
        object.__setattr__(self, "resultant", resultant)
        object.__setattr__(self, "relatively_prime", relatively_prime)
        object.__setattr__(self, "common", common)
        object.__setattr__(self, "witness", witness)


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
    # is a bug in one of the two routes.  Raised rather than asserted, so
    # that -O keeps the check and selfcheck reports it as a failure.
    if r.in_ghost_ideal != (not common.intervals.is_empty):
        raise AssertionError(("resultant and root sets disagree",
                              f, g, r, common))
    return RelPrimeReport(r, r.is_tangible, common,
                          common.intervals.leftmost_finite())


# Resultant routes by name, shared by the CLI's --method and the corpus;
# DEFAULT_METHOD is the one used when none is named.
METHODS = {
    "assignment": resultant,
    "dp": resultant_dp,
    "recursive": resultant_recursive,
    "product": resultant_tangible_product,
    "quadratic": resultant_quadratic,
    "nu": resultant_nu,
}
DEFAULT_METHOD = "assignment"
