"""Resultants in closed form: one merge of two slope sequences.

The resultant of two polynomials is the permanent (determinant with all
signs positive, which is the right analogue here since subtraction does
not exist) of their Sylvester matrix.  Its headline property: the
resultant lies in the ghost ideal exactly when the two polynomials share
a tangible root, provided at most one of them is divisible by x.  The
`resultant` entry point therefore works with canonical full coefficient
vectors and factors powers of x out; `decide` restores the x | f, x | g
bookkeeping on top of it.

A `Poly` keeps its canonical form together with that form's integer
image (`poly._image_of`): a scale D and each slot as (magnitude * D,
ghost).  `_joint` puts the two images on one scale, and `_merge` reads
the permanent off the merge of their slope sequences in O(m + n), with
no matrix built.  `resultant`, `decide` and `resultant_nu` all read it.

Why the merge is the permanent.  Let F_0 .. F_m and G_0 .. G_n be the
magnitudes of the two canonical vectors, which are concave, and P_c the
largest F_s + G_t with s + t = c, the magnitudes of the product f*g.
The Sylvester band has n f-rows and m g-rows: f-row t holds F_s at
column s + t, and g-row s holds G_t there.
- Bound.  An entry F_s of f-row t is at most P_{s+t} - G_t, and an entry
  G_t of g-row s at most P_{s+t} - F_s.  Summed over a permutation, the
  total is at most the sum of P_c over c < m + n, less G_t over t < n
  and F_s over s < m, with equality exactly when every entry is tight,
  F_s + G_t = P_{s+t}.
- The walk.  Start at (0, 0).  At (i, j) step to (i + 1, j) when f's
  next slope F_{i+1} - F_i is at least g's next slope, else to
  (i, j + 1): the merge that builds the Newton polygon of f*g, so every
  state is tight.  On f's step column i + j goes to g-row i, entry G_j;
  on g's step it goes to f-row j, entry F_i.  f steps once from each
  slot s < m and g once from each t < n, so every row is taken once: a
  permutation of tight entries, whose total is the magnitude.
- No tie.  If no slope of f equals one of g, each column c has one
  tight pair (s, t), s + t = c, since by concavity two would make a
  slope of f equal one of g.  So the tight pairs are the states, and
  column i + j holds tight entries in f-row j and g-row i only.  In a
  permutation of tight entries, going down from the last column, each
  column takes the walk's row: on f's step at (i, j), f-row j (if
  j < n) already went to the higher column of g's later step from j, so
  column i + j takes g-row i; the same holds the other way round.  So
  the walk is the only maximal permutation, and the value is ghost
  exactly when one of its entries is.
- Tie.  If f and g share a corner slope, the walk meets it at a state
  where both next slopes are equal.  The merge that breaks ties towards
  g builds the same polygon and differs in that state's column, so it
  is a second permutation of tight entries and the value is ghost: a
  shared corner slope is a shared corner root.
- Two constants have the empty band.  They give One, ghost when both are
  ghost: a ghost constant has every tangible root and a tangible one none.

The raw route, canonical=False, reads the same merge.
- Shift.  If x divides f, column 0 of the band holds one entry, g's
  constant term g_0 in g-row 0; expanding along it leaves the band of
  f / x and g.  So the raw value is the value for f and g with the
  powers of x divided out, times g_0^(ldeg f) times f_0^(ldeg g), and
  Zero when x divides both.  With one side shifted the factor is a
  power of the other side's constant term, ghost whenever the rule for
  two constants makes the value ghost, so that rule carries over.
- No shift.  The raw coefficients lie on or under the hull, so each raw
  entry is at most the canonical one and no raw permutation beats the
  canonical magnitude.  Each entry the walk takes sits on a corner of
  its hull, where the slope strictly drops (or at an end), and there the
  canonical form keeps the raw coefficient.  Indeed G_j, taken on f's
  step from (i, j) with j > 0, was reached by g's step from some
  (i', j - 1) with i' <= i, so G_j - G_{j-1} > F_{i'+1} - F_{i'} >=
  F_{i+1} - F_i >= G_{j+1} - G_j; F_i likewise.  So the raw band reaches
  the canonical magnitude through the walk.  Without a tie, a maximal
  raw permutation is a maximal canonical one, hence the walk, with the
  same entries; with a tie, the walk that breaks ties towards g takes
  corners too, by the same argument, and the raw value is ghost.

`decide` reads the same two images: the merge, and the root sweep
`poly._root_runs` of each, intersected as ints.

`sylvester` lays the band out for display and for the checks, whose
slow oracle routes, the subset-DP `permanent` over any semiring among
them, compare with `resultant`.  Every route here runs in polynomial
time.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .element import Element, ZERO
from .intervals import NEG_INF, Endpoint, RootSet, intersect_sorted
from .poly import Poly, _image_of, _intervals, _root_runs, canonical_full
from .record import Record

Grid = list[list]


def _refuse_zero(f: Poly, g: Poly) -> None:
    if f.is_zero or g.is_zero:
        raise ValueError("resultant of the zero polynomial")


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
    _refuse_zero(f, g)
    fv, gv = (dict(enumerate(canonical_full(p).coeffs)) for p in (f, g))
    if len(fv) == 1 or len(gv) == 1:
        raise ValueError("sylvester needs both degrees >= 1 after the power "
                         "of x is stripped; resultant() handles constants "
                         "directly")
    rows = _band(fv, gv)
    return [[row.get(j, ZERO) for j in range(len(rows))] for row in rows]


def _joint(f: Poly, g: Poly) -> tuple[int, dict, dict]:
    """The integer images of the two canonical forms (`poly._image_of`),
    power of x stripped, on one scale: one lcm of the two scales, and
    one product per slot only on a side whose scale differs from it."""
    _refuse_zero(f, g)
    (df, fv), (dg, gv) = _image_of(f), _image_of(g)
    if df == dg:
        return df, fv, gv
    scale = lcm(df, dg)
    return scale, _times(fv, scale // df), _times(gv, scale // dg)


def _times(view: dict, k: int) -> dict:
    if k == 1:
        return view
    return {s: (m * k, ghost) for s, (m, ghost) in view.items()}


def _merge(scale: int, fv: dict, gv: dict) -> Element:
    """The permanent of the band of two canonical images of one scale, in
    m + n steps of the slope merge (module docstring).

    The magnitude is the sum of the entries the walk takes.  The value is
    ghost when one of them is, or at a tie of the two next slopes, which
    the walk breaks towards f.  Two constants give One, ghost when both
    are ghost.
    """
    fl, gl = list(fv.values()), list(gv.values())
    m, n = len(fl) - 1, len(gl) - 1
    if not m and not n:
        return Element(0, fl[0][1] and gl[0][1])
    df = [b - a for (a, _), (b, _) in zip(fl, fl[1:])] + [NEG_INF]
    dg = [b - a for (a, _), (b, _) in zip(gl, gl[1:])] + [NEG_INF]
    total, is_ghost = 0, False
    i = j = 0
    for _ in range(m + n):
        a, b = df[i], dg[j]
        if a >= b:
            # Column i + j to g-row i.  a == b only while both sides have
            # steps left: the two share a corner slope.
            mag, layer = gl[j]
            is_ghost = is_ghost or layer or a == b
            i += 1
        else:
            mag, layer = fl[i]
            is_ghost = is_ghost or layer
            j += 1
        total += mag
    return Element(Fraction(total, scale), is_ghost)


def resultant(f: Poly, g: Poly, canonical: bool = True) -> Element:
    """Permanent of the Sylvester matrix of f and g, in O(m + n) once the
    canonical forms are taken.

    With canonical=True (the default) both inputs are replaced by their
    canonical full coefficient vectors with the power of x stripped, so the
    value is an invariant of the functions; ghost or zero output then means
    a shared tangible root.  A constant side of value c against a side of
    degree d gives c^d.  Two constants give One, ghost when both are ghost:
    a ghost constant has every tangible root and a tangible one none, so
    the two share a root exactly when both are ghost.

    With canonical=False the raw coefficients are used as written.  That
    permanent is the canonical value times g_0^(ldeg f) times
    f_0^(ldeg g), and Zero when x divides both (module docstring).
    """
    value = _merge(*_joint(f, g))
    if canonical:
        return value
    # When x divides both, both factors are powers of Zero.
    return value * g.coeff(0) ** f.ldeg * f.coeff(0) ** g.ldeg


def resultant_nu(f: Poly, g: Poly) -> Element:
    """Ghost value of the resultant: the magnitude of the slope merge on
    the two integer images (module docstring), in O(m + n) once the
    canonical forms are taken.  Agrees with nu(resultant(f, g))."""
    return _merge(*_joint(f, g)).nu()


def resultant_nu_assignment(f: Poly, g: Poly) -> Element:
    """Ghost value of the resultant, the ghost image of `resultant`.

    The magnitude of a permanent is the largest total magnitude of any
    permutation avoiding zero entries, an assignment problem that the
    slope merge solves exactly; this equals `resultant_nu`.
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

    Both sides read the two integer images on one scale: the slope merge,
    and the root sweep of each (`poly._root_runs`), whose runs are intersected
    as ints; a Fraction is made only for each endpoint of the result.
    """
    for p in (f, g):
        if p.is_zero or p.degree == 0:
            raise ValueError("relative primeness needs nonconstant polynomials")
    scale, fv, gv = _joint(f, g)
    r = _merge(scale, fv, gv)
    common = RootSet(
        _intervals(intersect_sorted(_root_runs(fv), _root_runs(gv)), scale),
        all(canonical_full(p).shift > 0 or v[0][1]
            for p, v in ((f, fv), (g, gv))))
    # Root sharing and non-tangible resultant must agree; a failure here
    # is a bug in one of the two routes (the merge's layer and the root
    # sweep read the images independently).
    # Raised rather than asserted, so that -O keeps the check and
    # selfcheck reports it as a failure.
    if r.in_ghost_ideal != (not common.intervals.is_empty):
        raise AssertionError(("resultant and root sets disagree",
                              f, g, r, common))
    return RelPrimeReport(r, r.is_tangible, common,
                          common.intervals.leftmost_finite())
