"""Sylvester permanents, resultant routes, relative primeness."""

import importlib
import os
import subprocess
import sys
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import supertrop
from supertrop import (ONE, ZERO, Element, Poly, decide, ghost, parse_poly,
                       resultant, resultant_nu, resultant_nu_assignment,
                       sylvester, tangible, tangible_roots)
from supertrop.poly import canonical_full, full_from_corners
from supertrop.resultant import _band, _joint, semitangible_blocks
from supertrop.sparse import _convolve, scaled
from supertrop.checks import (Gen, permanent, permanent_oracle,
                              resultant_quadratic, resultant_recursive,
                              resultant_tangible_product)

from assignment import permanent_assignment

P = parse_poly

# Few distinct magnitudes, so that sums tie and maximal permutations are
# often not unique.  Denominators 3 and 5 come first, so that the engine's
# integer scale is not always 2, even for the few magnitudes of a short
# prefix.
MAGS = [Fraction(-1, 3), Fraction(2, 5)] + [Fraction(k, 2) for k in range(-3, 4)]


@st.composite
def entry_kinds(draw, zero_ok=True):
    """A strategy for entries: how many magnitudes, and whether Zero and
    ghosts occur at all, are drawn once per matrix or polynomial."""
    top = draw(st.integers(0, len(MAGS) - 1))
    layer = st.booleans() if draw(st.booleans()) else st.just(False)
    entry = st.builds(Element, st.sampled_from(MAGS[:top + 1]), layer)
    if zero_ok and draw(st.booleans()):
        entry = st.one_of(st.just(ZERO), entry)
    return entry


@st.composite
def matrices(draw):
    size = draw(st.integers(0, 6))
    entry = draw(entry_kinds())
    return draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                         min_size=size, max_size=size))


@st.composite
def polys(draw):
    deg = draw(st.integers(0, 7))
    coeffs = draw(st.lists(draw(entry_kinds()), min_size=deg, max_size=deg))
    lead = draw(draw(entry_kinds(zero_ok=False)))
    return Poly(dict(enumerate(coeffs + [lead])))


@st.composite
def sylvester_pairs(draw):
    """Two polynomials whose raw Sylvester matrix has side at most 8, with
    tied magnitudes, ghosts, interior Zero coefficients and powers of x."""
    m = draw(st.integers(0, 8))
    pair = []
    for deg in (m, draw(st.integers(0, 8 - m))):
        coeffs = draw(st.lists(draw(entry_kinds()), min_size=deg,
                               max_size=deg))
        low = draw(st.integers(0, deg))
        lead = draw(draw(entry_kinds(zero_ok=False)))
        pair.append(Poly({i: c for i, c in enumerate(coeffs) if i >= low}
                         | {deg: lead}))
    return pair


def maps_of(f, g, canonical):
    """The two sides as ascending {slot: nonzero coefficient} maps: the
    canonical full vectors, power of x stripped, or the raw coefficients."""
    if canonical:
        return [dict(enumerate(canonical_full(p).coeffs)) for p in (f, g)]
    return [dict(sorted(p.items())) for p in (f, g)]


def dense(maps, zero=ZERO):
    """The Sylvester matrix of two ascending {slot: coefficient} maps, laid
    out dense with `zero` in the gaps: the oracles' own layout, built
    apart from the sparse `_band`."""
    fv, gv = ([p.get(i, zero) for i in range(max(p) + 1)] for p in maps)
    m, n = len(fv) - 1, len(gv) - 1
    return ([[zero] * i + fv + [zero] * (n - 1 - i) for i in range(n)]
            + [[zero] * j + gv + [zero] * (m - 1 - j) for j in range(m)])


def constants_rule(maps):
    """Two constants give One, ghost when both are ghost: the resultant's
    convention where the Sylvester matrix is empty and its permanent One.
    None when a side is not constant."""
    if max(maps[0]) or max(maps[1]):
        return None
    return Element(0, maps[0][0].is_ghost and maps[1][0].is_ghost)


def resultant_dp(f, g, canonical=True):
    """`resultant` through the subset DP `permanent`, in O(2^(m+n)), on the
    same canonical or raw vectors."""
    maps = maps_of(f, g, canonical)
    want = constants_rule(maps)
    return permanent(dense(maps)) if want is None else want


def grid(f, g):
    return [[str(e) for e in row] for row in sylvester(f, g)]


def test_sylvester_examples():
    assert grid(P("x + 1"), P("x + 1")) == [["1", "0"], ["1", "0"]]
    assert grid(P("x^2 + 3v*x + 2"), P("x + 5")) == [
        ["2", "3v", "0"],
        ["5", "0", "-inf"],
        ["-inf", "5", "0"],
    ]


def test_sylvester_rejects_constants():
    with pytest.raises(ValueError):
        sylvester(P("x + 1"), P("4"))
    with pytest.raises(ValueError, match="after the power of x is stripped"):
        # x^2 canonicalizes to a constant once the power is stripped.
        sylvester(P("x^2"), P("x + 1"))


def test_zero_polynomial_is_refused():
    routes = [partial(resultant, canonical=True),
              partial(resultant, canonical=False), resultant_nu, sylvester]
    for pair in ((Poly.zero(), P("x + 1")), (P("x + 1"), Poly.zero())):
        for route in routes:
            with pytest.raises(ValueError,
                               match=r"^resultant of the zero polynomial$"):
                route(*pair)


def test_permanent_examples():
    rows = [[tangible(1), tangible(0)], [tangible(1), tangible(0)]]
    assert permanent(rows) == ghost(1)
    rows = [[tangible(1), tangible(0)], [tangible(2), tangible(0)]]
    assert permanent(rows) == tangible(2)
    with pytest.raises(ValueError):
        permanent([[ONE, ONE]])
    for route in (permanent_assignment, permanent_oracle):
        for rows in ([[ONE, ONE]], [[ONE, ONE], [ONE]]):
            with pytest.raises(ValueError, match="square matrix"):
                route(rows)


def test_permanent_matches_oracle():
    gen = Gen(301)
    for side in range(2, 7):
        for _ in range(60):
            rows = [[ZERO if gen.rng.random() < 0.25 else gen.element()
                     for _ in range(side)] for _ in range(side)]
            assert permanent(rows) == permanent_oracle(rows), rows


@settings(max_examples=120, deadline=None)
@given(matrices())
def test_assignment_permanent_matches_oracle(rows):
    assert permanent_assignment(rows) == permanent_oracle(rows)


def test_assignment_zero_exits():
    a = tangible(1)
    empty_row = [[a, a], [ZERO, ZERO]]
    empty_col = [[a, ZERO], [a, ZERO]]
    # Every row and column has an entry, but rows 0-2 share columns 1-2
    # only: no permutation avoids Zero, and the search finds no path.
    hall = [[ZERO, a, a, ZERO]] * 3 + [[a, a, a, a]]
    for rows in (empty_row, empty_col, hall):
        assert permanent_assignment(rows) == ZERO == permanent_oracle(rows)


def test_assignment_search_after_warm_start():
    # Each row takes its highest free column of largest reduced value.
    # Row 0 takes the only such column of row 2, which is left to the
    # search.  Its path moves the potentials, which then decide the layer:
    # two permutations tie in the first case, one alone is maximal in the
    # second.
    for rows, want in (([[-1, 0, 0], [1, 0, 1], [-1, 0, 0]], ghost(1)),
                       ([[1, 1, 0, 0], [-1, 2, 2, 0], [0, 0, 0, 0],
                         [1, 0, -1, 0]], tangible(4))):
        rows = [[tangible(m) for m in row] for row in rows]
        assert permanent_assignment(rows) == want == permanent_oracle(rows)
    # Two rows search, the second after the first has moved the potentials.
    for rows, want in (([[2, 1, 0], [0, 0, 0], [0, 0, 0]], ghost(2)),
                       ([[3, 3, -1, 0], [1, 0, 0, 0], [-1, 0, 1, 0],
                         [0, 1, 3, 0]], tangible(7))):
        rows = [[tangible(m) for m in row] for row in rows]
        assert permanent_assignment(rows) == want == permanent_oracle(rows)
    # A band whose sides share the corner root 1: the engine, the merge
    # and the oracle all give the ghost.
    f, g = P("(x+1)^3"), P("(x+1)^2*(x+2)")
    rows = dense(maps_of(f, g, True))
    assert (permanent_assignment(rows) == resultant(f, g) == ghost(12)
            == permanent_oracle(rows))


def test_resultant_examples():
    assert resultant(P("x + 1"), P("x + 1")) == ghost(1)
    assert resultant(P("x^2 + 3v*x + 2"), P("x + 5")) == tangible(10)
    assert resultant(P("2v*x^2 + 4*x"), P("x + 1v")) == tangible(4)
    assert resultant(P("(x+3)*(x+4)"), P("x + 2")) == tangible(7)
    # Constant sides: c against degree d gives c^d, two constants One.
    for route in (resultant, resultant_dp):
        assert route(P("3v"), P("x^2 + 1")) == ghost(6)
        assert route(P("x^3 + 0"), P("4")) == tangible(12)
        assert route(P("2"), P("5")) == ONE


@settings(max_examples=15, deadline=None)
@given(polys(), polys())
def test_resultant_matches_dp(f, g):
    for canonical in (True, False):
        assert resultant(f, g, canonical) == resultant_dp(f, g, canonical)


@settings(max_examples=200, deadline=None)
@given(sylvester_pairs())
# Terms stored in descending order: the raw maps must still ascend.
@example([Poly({3: ONE, 1: tangible(1), 0: ghost(2)}),
          Poly({2: ghost(1), 0: ONE})])
def test_resultant_matches_oracle_on_its_band(pair):
    # `resultant` lays the sparse band out over scaled entries; the oracle
    # reads the dense Element matrix of the same maps.
    f, g = pair
    for canonical in (True, False):
        maps = maps_of(f, g, canonical)
        band = _band(*maps)
        for row in band:
            cols = list(row)
            assert all(a < b for a, b in zip(cols, cols[1:])), row
            assert not any(e.is_zero for e in row.values()), row
        m, n = (max(p) for p in maps)
        assert sum(map(len, band)) == n * len(maps[0]) + m * len(maps[1])
        rows = dense(maps)
        if canonical and m and n:
            assert rows == sylvester(f, g)
        want = constants_rule(maps)
        if want is None:
            want = permanent_oracle(rows)
        assert resultant(f, g, canonical) == want, (f, g, canonical)


def test_resultant_matches_dp_at_8_plus_8():
    pairs = [
        # Tangible, one shared root: ghost only through tied permutations.
        ((P("(x+1)*(x+2)*(x+3)*(x+4)*(x+5)*(x+6)*(x+7)*(x+8)"),
          P("(x+1/2)*(x+3/2)*(x+5/2)*(x+7/2)*(x+4)*(x+11/2)*(x+13/2)"
            "*(x+15/2)")), True),
        # Sparse raw vectors with ghost coefficients.
        ((P("x^8 + 2v*x^5 + 1*x^3 + 3"), P("x^8 + 1*x^6 + 5v*x^2 + 2")),
         False),
    ]
    for (f, g), canonical in pairs:
        assert resultant(f, g, canonical) == resultant_dp(f, g, canonical)


def test_assignment_exact_with_large_denominators():
    # Coefficients k + 1/p for distinct primes p near 10^6, concave so that
    # every one is a vertex of the canonical form: scaling by the lcm of
    # the denominators leaves 64 bits far behind.
    primes = [1000003, 1000033, 1000037, 1000039,
              1000081, 1000099, 1000117, 1000121]
    f = Poly({i: tangible(k + Fraction(1, p))
              for i, (k, p) in enumerate(zip([0, 3, 5, 6], primes[:4]))})
    g = Poly({i: tangible(k + Fraction(1, p))
              for i, (k, p) in enumerate(zip([0, 2, 3, 3], primes[4:]))})
    assert canonical_full(f).to_poly() == f
    value = resultant_nu_assignment(f, g)
    assert value == resultant_nu(f, g) == resultant(f, g).nu()
    assert resultant(f, g) == resultant_dp(f, g)


def test_runs_optimized_without_numpy_or_scipy():
    # -O strips asserts; decide's cross-check must still raise.
    script = """
import sys
sys.modules["numpy"] = sys.modules["scipy"] = None
import importlib
R = importlib.import_module("supertrop.resultant")
from supertrop import parse_poly as P
print(R.resultant_nu_assignment(P("x^2 + 3*x + 1"), P("x + 4")))
real = R._merge
for broken, pair in ((lambda *a: real(*a).nu(), ("x + 1", "x + 2")),
                     (lambda *a: real(*a).hat(), ("x + 1", "x + 1"))):
    R._merge = broken
    try:
        R.decide(*map(P, pair))
    except AssertionError:
        print("raised")
"""
    src = str(Path(supertrop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["8v", "raised", "raised"]


def test_resultant_symmetry():
    # The Sylvester blocks swap rows only, and permanents ignore row order.
    gen = Gen(302)
    done = 0
    while done < 150:
        f, g = gen.canonical_poly(5), gen.canonical_poly(5)
        if f.degree == f.ldeg or g.degree == g.ldeg:
            continue
        assert resultant(f, g) == resultant(g, f), (f, g)
        done += 1


def test_resultant_scaling():
    gen = Gen(303)
    done = 0
    while done < 100:
        f, g = gen.canonical_poly(4), gen.canonical_poly(4)
        if f.degree == f.ldeg or g.degree == g.ldeg:
            continue
        c = tangible(gen.fraction())
        base = resultant(f, g)
        m = f.degree - f.ldeg
        n = g.degree - g.ldeg
        assert resultant(f, g.scale(c)) == c ** m * base, (f, g, c)
        assert resultant(f.scale(c), g) == c ** n * base, (f, g, c)
        done += 1


def test_nu_routes_agree():
    gen = Gen(304)
    for _ in range(150):
        f, g = gen.full_poly(3), gen.full_poly(3)
        direct = resultant(f, g)
        assert resultant_nu(f, g) == direct.nu(), (f, g)
        assert resultant_nu_assignment(f, g) == direct.nu(), (f, g)
        assert resultant_nu(f, g).in_ghost_ideal


# -- oracles: the corner-root loops before the one product rule --------------


def resultant_nu_oracle(f, g):
    """`resultant_nu` multiplying one Element per corner-root pair."""
    fv, gv = canonical_full(f).coeffs, canonical_full(g).coeffs
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


def product_rule_oracle(f, g):
    """`resultant_nu` before the merge: on the joint integer images of
    degrees m and n, with F and G their magnitudes and a, b their corner
    roots, n F_m + m G_n + the sum of max(a, b) over all m n pairs."""
    scale, fs, gs = _joint(f, g)
    fm, gm = [[mag for mag, _ in view.values()] for view in (fs, gs)]
    m, n = len(fm) - 1, len(gm) - 1
    fr = [a - b for a, b in zip(fm, fm[1:])]
    gr = [a - b for a, b in zip(gm, gm[1:])]
    total = n * fm[m] + m * gm[n] + sum([max(a, b) for a in fr for b in gr])
    return Element(Fraction(total, scale), True)


def tangible_product_oracle(f, g):
    """`resultant_tangible_product` as a product of sums a_i + b_j."""
    fv, gv = f.coeff_vector(), g.coeff_vector()
    m, n = len(fv) - 1, len(gv) - 1
    out = fv[m] ** n * gv[n] ** m
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            out = out * (tangible(fv[i - 1].mag - fv[i].mag)
                         + tangible(gv[j - 1].mag - gv[j].mag))
    return out


@st.composite
def tangible_full(draw):
    """Full tangible polynomials with repeated corners and a scaled lead."""
    h = draw(st.integers(0, 6))
    corners = sorted(draw(st.lists(st.sampled_from(MAGS), min_size=h,
                                   max_size=h)))
    lead = draw(st.sampled_from([0, Fraction(5, 3), -2]))
    return full_from_corners(corners, [False] * (h + 1), lead)


@settings(max_examples=300, deadline=None)
@given(polys(), polys())
def test_resultant_nu_matches_the_pair_loop(f, g):
    if f.is_zero or g.is_zero:
        return
    assert (resultant_nu(f, g) == resultant_nu_oracle(f, g)
            == product_rule_oracle(f, g))


@settings(max_examples=300, deadline=None)
@given(tangible_full(), tangible_full())
def test_tangible_product_matches_the_pair_loop(f, g):
    assert resultant_tangible_product(f, g) == tangible_product_oracle(f, g)
    assert resultant_nu(f, g) == resultant_nu_oracle(f, g)


def recursive_oracle(fv, gv):
    """`resultant_recursive` before its memo: about C(m+n, m) calls."""
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
    return (fv[0] * recursive_oracle(fv, gv[1:])
            + gv[0] * recursive_oracle(fv[1:], gv))


@st.composite
def layered_full(draw):
    """Full polynomials up to degree 8 with any layers; corners from MAGS,
    so they tie within and across the two inputs."""
    h = draw(st.integers(0, 8))
    corners = sorted(draw(st.lists(st.sampled_from(MAGS), min_size=h,
                                   max_size=h)))
    flags = draw(st.lists(st.booleans(), min_size=h + 1, max_size=h + 1))
    lead = draw(st.sampled_from([0, Fraction(5, 3), -2]))
    return full_from_corners(corners, flags, lead)


@settings(max_examples=100, deadline=None)
@given(layered_full(), layered_full())
@example(full_from_corners([-1, -1, 0, 0, 0, 1, 1, 1], [True, False] * 4 + [False]),
         full_from_corners([-1, 0, 0, 1, 1, 1, 1, 1], [False, True] * 4 + [True]))
def test_recursive_matches_the_unmemoized_recursion(f, g):
    want = recursive_oracle(tuple(f.coeff_vector()), tuple(g.coeff_vector()))
    assert resultant_recursive(f, g) == want


# -- the dual certificate behind the merge -----------------------------------


@st.composite
def canonical_pairs(draw):
    """Two `layered_full` polynomials times powers of x: ties within and
    across the pair, ghosts, fractions, and constant sides."""
    return [draw(layered_full()) * Poly({draw(st.integers(0, 2)): ONE})
            for _ in range(2)]


@settings(max_examples=200, deadline=None)
@given(canonical_pairs())
@example([P("(x+1)^3"), P("(x+1)^2*(x+2)")])
def test_product_gives_an_optimal_dual(pair):
    # Column c at v_c = -(f*g)_c and each row at its largest reduced value
    # u_r form a feasible dual of the band whose value, sum u - sum v, is
    # the resultant's magnitude on the scaled ints: an optimal dual.
    f, g = pair
    scale, views = scaled(maps_of(f, g, True))
    band = dense(views, zero=None)
    product = _convolve(*views)
    v = [-product[c][0] for c in range(len(band))]
    u = [max([e[0] + v[j] for j, e in enumerate(row) if e is not None])
         for row in band]
    assert sum(u) - sum(v) == resultant(f, g).mag * scale, (f, g)


def test_product_missing_columns_fall_back():
    # Raw vectors with Zero coefficients: f*g has no term at columns 1 and
    # 3, and the raw value still equals the oracle's.
    f, g = P("x^2 + 0"), P("x^2 + 1")
    maps = maps_of(f, g, False)
    _, views = scaled(maps)
    assert sorted(_convolve(*views)) == [0, 2, 4]
    rows = dense(maps)
    assert resultant(f, g, False) == tangible(2) == permanent_oracle(rows)


def test_recursive_matches_permanent():
    gen = Gen(305)
    for _ in range(150):
        f, g = gen.full_poly(4), gen.full_poly(3)
        assert resultant_recursive(f, g) == resultant(f, g), (f, g)
    with pytest.raises(ValueError):
        resultant_recursive(P("x^2 + 1"), P("x + 1"))


def test_recursive_needs_no_stack():
    # With the recursion limit just above the current depth, a degree far
    # past that margin still works: the table is filled by a loop.
    gen = Gen(308)
    f, g = gen.full_poly(3, 3), gen.full_poly(300, 300)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 40)
    try:
        value = resultant_recursive(f, g)
    finally:
        sys.setrecursionlimit(limit)
    assert value == resultant(f, g)


def test_product_rule():
    gen = Gen(306)
    for _ in range(100):
        f, a_roots = gen.tangible_split(4)
        g, b_roots = gen.tangible_split(4)
        value = resultant_tangible_product(f, g)
        assert value == resultant(f, g), (f, g)
        expected = ONE
        for a in a_roots:
            for b in b_roots:
                expected = expected * (tangible(a) + tangible(b))
        assert value == expected, (f, g)
        # Ghost exactly when the root sets meet.
        assert value.in_ghost_ideal == bool(set(a_roots) & set(b_roots))
    with pytest.raises(ValueError):
        resultant_tangible_product(P("x^2 + 6v*x + 7"), P("x + 1"))


def test_quadratic_rule():
    gen = Gen(307)
    for _ in range(100):
        f = gen.full_poly(4)
        r1, r2 = gen.corners(2)
        flags = [gen.rng.random() < 0.5, gen.rng.random() < 0.5, False]
        g = canonical_full(full_from_corners([r1, r2], flags)).to_poly()
        assert resultant_quadratic(f, g) == resultant(f, g), (f, g)
    with pytest.raises(ValueError):
        resultant_quadratic(P("x + 1"), P("x + 2"))
    with pytest.raises(ValueError):
        # Corner roots out of order: 2 mag(b1) < mag(b0).
        resultant_quadratic(P("x + 1"), P("x^2 + 0v*x + 5"))


def test_block_decomposition():
    # For disjoint root sets the resultant magnitude splits over the
    # semitangible blocks of both sides.
    gen = Gen(308)
    done = tried = 0
    while done < 120 and tried < 20000:
        tried += 1
        f, g = gen.monic_full(5), gen.monic_full(5)
        if not tangible_roots(f).intersect(tangible_roots(g)).intervals.is_empty:
            continue
        prod = ONE
        for fb in semitangible_blocks(f):
            for gb in semitangible_blocks(g):
                prod = prod * resultant(fb, gb)
        assert resultant(f, g).nu() == prod.nu(), (f, g)
        done += 1
    assert done == 120


def test_semitangible_blocks_recover_input():
    gen = Gen(309)
    for _ in range(100):
        f = gen.monic_full(6)
        blocks = semitangible_blocks(f)
        prod = parse_poly("0")
        for b in blocks:
            assert b.degree >= 1
            assert b.coeff(b.degree).mag == 0
            prod = prod * b
        lead = canonical_full(f).coeffs[-1]
        scaled = prod.scale(Element(lead.mag, lead.is_ghost))
        assert canonical_full(scaled).to_poly() == canonical_full(f).to_poly()


def test_decide_examples():
    rep = decide(P("(x+1)*(x+2)"), P("x + 1"))
    assert not rep.relatively_prime
    assert rep.witness == Fraction(1)
    assert rep.resultant.in_ghost_ideal

    rep = decide(P("2v*x^2 + 4*x"), P("x + 1v"))
    assert rep.relatively_prime
    assert rep.resultant == tangible(4)
    assert rep.witness is None

    with pytest.raises(ValueError):
        decide(P("x + 1"), P("3"))


def test_canonical_routes_read_the_images_only(monkeypatch):
    # Once the canonical forms are taken, every route, raw vectors too,
    # reads their integer images: nothing is rescaled or convolved.
    import supertrop.sparse as S
    f, g = P("x^3 + 1/3*x + 2v"), P("2/7*x^2 + 5v*x")
    canonical_full(f), canonical_full(g)

    def refuse(*args):
        raise RuntimeError("called")

    monkeypatch.setattr(S, "scaled", refuse)
    monkeypatch.setattr(S, "_convolve", refuse)
    monkeypatch.setattr(sys.modules["supertrop.poly"], "scaled", refuse)
    for canonical in (True, False):
        assert resultant(f, g, canonical) == resultant_dp(f, g, canonical)
    assert resultant_nu(f, g) == resultant_dp(f, g).nu()
    assert decide(f, g).resultant == resultant_dp(f, g)


def test_merge_takes_m_plus_n_steps(monkeypatch):
    # Each route call runs one merge over the two images, m + n steps, and
    # builds no band: at k = 2000 the full band has 2,002,000 entries.
    module = sys.modules["supertrop.resultant"]
    real, steps = module._merge, []

    def counted(scale, fv, gv):
        steps.append(len(fv) + len(gv) - 2)
        return real(scale, fv, gv)

    monkeypatch.setattr(module, "_merge", counted)
    cases = [("x^1000 + 1", "x^1000 + 2", 2000, "2000"),
             ("(x+1)^100*(x+2)^50", "(x+2)^150", 300, "45000v"),
             ("(x+1/3)^150 + 5v*x^7", "(x+2)^150", 300, "45000"),
             ("(x+1)^150*(x+2)^150", "(x+1)^150*(x+2)^150", 600, "157500v")]
    for f, g, want, value in cases:
        steps.clear()
        assert str(resultant(P(f), P(g))) == value
        assert decide(P(f), P(g)).relatively_prime != value.endswith("v")
        assert steps == [want, want], (f, g)
    # The raw route takes the same merge, here with x^3 divided out of g,
    # and multiplies by f's constant term cubed.
    steps.clear()
    raw = resultant(P("x^3 + 1"), P("x^6 + 2*x^3"), canonical=False)
    assert raw == tangible(9) and steps == [6]


def test_decide_raises_when_routes_disagree(monkeypatch):
    # A ghost resultant without a common root, and a tangible one with.
    module = importlib.import_module("supertrop.resultant")
    real = module._merge
    for broken, pair in ((lambda *a: real(*a).nu(), ("x + 1", "x + 2")),
                         (lambda *a: real(*a).hat(), ("x + 1", "x + 1"))):
        monkeypatch.setattr(module, "_merge", broken)
        with pytest.raises(AssertionError, match="disagree"):
            decide(*map(P, pair))


def test_decide_against_endpoint_oracle():
    # A nonempty intersection of closed interval unions always contains a
    # finite endpoint of one side, or both sides cover the whole line.
    gen = Gen(310)
    done = 0
    while done < 200:
        f, g = gen.canonical_poly(5), gen.canonical_poly(5)
        if f.degree == f.ldeg or g.degree == g.ldeg:
            continue
        rep = decide(f, g)
        rf, rg = tangible_roots(f), tangible_roots(g)
        candidates = [Fraction(0)]
        for lo, hi in list(rf.intervals) + list(rg.intervals):
            candidates.extend(x for x in (lo, hi) if isinstance(x, Fraction))
        shared = any(c in rf and c in rg for c in candidates)
        assert rep.relatively_prime == (not shared), (f, g)
        if not rep.relatively_prime:
            assert rep.witness in rf and rep.witness in rg
        done += 1
