"""One-variable polynomials: canonical forms, roots, ghost sums."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import supertrop
import supertrop.poly as M
from supertrop import (CommonRoot, Element, FullPoly, HalfTangible,
                       IntervalSet, NotGhostSum, Poly, RootSet, Side,
                       add_shift, analyze_ghost_sum, bezout_report,
                       canonical_full, classify_half_tangible, decide,
                       divides_linear, e_divides, e_equiv, essential_part,
                       frobenius, ggraph, ghost, is_ghost_poly, mul_shift,
                       parse_bipoly, parse_poly, resultant, resultant_nu,
                       resultant_nu_assignment, tangible, tangible_roots,
                       verify_division, NEG_INF, POS_INF, ZERO)
from supertrop.checks import Gen
from supertrop.resultant import _band, _joint, _merge
from supertrop.sparse import _convolve, scaled

from assignment import assignment

P = parse_poly


def function_samples(polys: list[Poly]) -> list[Element]:
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


def sample_points(f: Poly) -> list:
    return function_samples([f])


# -- Fraction oracles for the integer canonical form and root locus ----------


def _fraction_hull(points):
    stack = []
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


def canonical_full_oracle(f: Poly) -> FullPoly:
    """Hull on Fraction magnitudes, filled slot by slot."""
    shift = f.ldeg
    points = sorted((deg - shift, c.mag) for deg, c in f.items())
    hull = _fraction_hull(points)
    vertex_at = dict(hull)
    coeffs, flags = [], []
    seg = 0
    for i in range(points[-1][0] + 1):
        if i in vertex_at:
            coeffs.append(f.coeff(shift + i))
            flags.append(True)
            if seg + 1 < len(hull) and hull[seg + 1][0] == i:
                seg += 1
        else:
            while hull[seg + 1][0] < i:
                seg += 1
            (x0, y0), (x1, y1) = hull[seg], hull[seg + 1]
            coeffs.append(ghost(y0 + (y1 - y0) * Fraction(i - x0, x1 - x0)))
            flags.append(False)
    return FullPoly(shift, tuple(coeffs), tuple(flags))


def tangible_roots_oracle(f: Poly) -> RootSet:
    """Every ghost region and every corner point, sorted and merged."""
    full = canonical_full_oracle(f)
    corners = full.corner_roots()
    h = full.hi
    pieces = []
    for i in range(h + 1):
        lo = corners[i - 1] if i >= 1 else NEG_INF
        hi = corners[i] if i < h else POS_INF
        if full.coeffs[i].is_ghost:
            pieces.append((lo, hi))
    pieces.extend((a, a) for a in corners)
    return RootSet(IntervalSet.of(pieces),
                   full.shift > 0 or full.coeffs[0].is_ghost)


def tangible_roots_merge(f: Poly) -> RootSet:
    """The one-pass merge of the root locus on the Fraction corner roots of
    the canonical form, as the library did before its integer sweep."""
    full = canonical_full(f)
    merged = []
    lo = NEG_INF
    for c, hi in zip(full.coeffs, (*full.corner_roots(), POS_INF)):
        start = lo if c.is_ghost else hi
        if start == POS_INF:
            break  # a tangible top slot adds no point at +inf
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((start, hi))
        lo = hi
    at_bottom = full.shift > 0 or full.coeffs[0].is_ghost
    return RootSet(IntervalSet(tuple(merged)), at_bottom)


# Denominators near 10^6, like the benchmark's large pairs, and numerators
# far beyond machine words.
_PRIMES = (999953, 999959, 999961, 999979, 999983, 1000003, 1000033, 1000037)
_magnitude = st.one_of(
    st.builds(Fraction, st.integers(-8, 8), st.integers(1, 4)),
    st.builds(Fraction, st.integers(-10**7, 10**7), st.sampled_from(_PRIMES)),
    st.builds(Fraction, st.integers(-10**300, 10**300),
              st.integers(1, 10**6)))


@st.composite
def polys(draw, max_deg=12):
    """Sparse supports, both layers, shifts and single terms; half of the
    draws put the magnitudes on one line, some pushed below it, which makes
    collinear runs and ties."""
    degrees = draw(st.sets(st.integers(0, max_deg), min_size=1,
                           max_size=max_deg + 1))
    if draw(st.booleans()):
        a, b = draw(_magnitude), draw(_magnitude)
        drop = st.sampled_from([0, 0, 0, 1, Fraction(1, 3)])
        mags = {d: a + b * d - draw(drop) for d in degrees}
    else:
        mags = {d: draw(_magnitude) for d in degrees}
    return Poly({d: Element(m, draw(st.booleans())) for d, m in mags.items()})


@settings(max_examples=400, deadline=None)
@given(polys())
# A raw term on a hull segment is no vertex: the tangible 1*x, the ghost
# 1v*x^2 and the three inner terms of the last become ghost slots.
@example(P("x^2 + 1*x + 2"))
@example(P("x^4 + 1v*x^2 + 2"))
@example(P("x^4 + 1*x^3 + 2*x^2 + 3*x + 4"))
def test_canonical_full_matches_fraction_oracle(f):
    assert canonical_full(f) == canonical_full_oracle(f)


@settings(max_examples=400, deadline=None)
@given(polys())
def test_tangible_roots_match_fraction_oracle(f):
    assert tangible_roots(f) == tangible_roots_oracle(f)


@settings(max_examples=400, deadline=None)
@given(polys())
def test_integer_image_is_the_canonical_form_on_one_scale(f):
    scale, view = M._image_of(f)
    full = canonical_full(f)
    assert len(view) == full.hi + 1
    assert [(Fraction(m, scale), g) for m, g in view] == [
        (c.mag, c.is_ghost) for c in full.coeffs]
    assert tangible_roots(f) == tangible_roots_merge(f)


def test_element_form_is_read_off_the_image_on_first_request(monkeypatch):
    # The readers that compare ints take the image and build no Element
    # form; the first `canonical_full` reads it off the kept image.
    f, g = P("x^3 + 1/3*x + 2v"), P("x + 1")
    tangible_roots(f), resultant(f, g), decide(f, g), e_equiv(f, g)
    is_ghost_poly(f), verify_division(f * g, g, g)
    for p in (f, g, f * g):
        assert getattr(p, "_full", None) is None
    image = M._image_of(f)
    builds = []

    def counted(points):
        builds.append(points)
        return real(points)

    real = M._upper_hull
    monkeypatch.setattr(M, "_upper_hull", counted)
    full = canonical_full(f)
    assert canonical_full(f) is full and M._image_of(f) is image
    assert builds == []
    # The hull runs from (0, 2) to (3, 0), so slots 1 and 2 are ghosts.
    assert image == (3, [(6, True), (4, True), (2, True), (0, False)])
    assert full == FullPoly(0, (ghost(2), ghost("4/3"), ghost("2/3"),
                                tangible(0)), (True, False, False, True))


@st.composite
def pairs(draw):
    """Two `polys`: drawn apart, or g a relayered, shifted and scaled copy
    of f, or f times a third, so that corner slopes are shared."""
    f = draw(polys())
    kind = draw(st.sampled_from(["apart", "copy", "product"]))
    if kind == "apart":
        return f, draw(polys())
    if kind == "copy":
        k, t = draw(st.integers(0, 2)), draw(_magnitude)
        return f, Poly({d + k: Element(c.mag + t, draw(st.booleans()))
                        for d, c in f.items()})
    return f, f * draw(polys(max_deg=3))


def e_equiv_on_forms(f, g):
    """`e_equiv` as it compared the Element forms before the images."""
    if f.is_zero or g.is_zero:
        return f.is_zero and g.is_zero
    a, b = canonical_full(f), canonical_full(g)
    return a.shift == b.shift and a.coeffs == b.coeffs


def verify_division_on_forms(f, g, q):
    """`verify_division` as it compared the Element forms."""
    s = f + q * g
    if f.is_zero:
        return s.is_zero
    a, b = canonical_full(s), canonical_full(f)
    return a.all_ghost and [c.mag for c in a.coeffs] == [c.mag for c in b.coeffs]


def fresh(p):
    """A copy of p with neither its image nor its form taken."""
    return Poly(dict(p.items()))


@settings(max_examples=300, deadline=None)
@given(pairs(), st.sampled_from(["raw", "ghost", "product"]))
@example((P("x^2 + 1*x + 2"), P("x^2 + 1v*x + 2")), "raw")
@example((P("1/3*x^2 + 2v"), P("x + 1")), "ghost")
def test_image_readers_match_the_form_based_bodies(pair, kind):
    # `e_equiv` and `verify_division` read the integer images, of different
    # scales and shifts; they answer as the comparisons of the forms did.
    f, g = pair
    for a, b in ((f, g), (f, canonical_full(f).to_poly()), (f.nu(), g.nu())):
        assert e_equiv(fresh(a), fresh(b)) == e_equiv_on_forms(a, b)
    # A dividend over q*g, ghost where it wins, is often a witness.
    q = Poly({d: tangible(c.mag) for d, c in f.items()})
    h = {"raw": f, "ghost": (q * g).nu(), "product": f * g}[kind]
    assert (verify_division(fresh(h), fresh(g), fresh(q))
            == verify_division_on_forms(h, g, q))


def dual_value(fv, gv):
    """The value of the dual -P_c of the band of two images: the sum of
    P_c over c < m + n, P = f*g by the full convolution, less G_t over
    t < n and F_s over s < m."""
    fv, gv = dict(enumerate(fv)), dict(enumerate(gv))
    product, m, n = _convolve(fv, gv), len(fv) - 1, len(gv) - 1
    return (sum(product[c][0] for c in range(m + n))
            - sum(gv[t][0] for t in range(n)) - sum(fv[s][0] for s in range(m)))


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_merged_product_is_the_convolution_of_canonical_images(pair):
    # The merge's magnitude is the value of the dual built from the full
    # convolution of the two images.
    f, g = pair
    scale, fv, gv = _joint(f, g)
    for view, p in ((fv, f), (gv, g)):
        assert [Fraction(m, scale) for m, _ in view] == [
            c.mag for c in canonical_full(p).coeffs]
    assert _merge(scale, fv, gv).mag * scale == dual_value(fv, gv)


def tight_rows(fv, gv):
    """The rows of the band of two canonical images of one scale with only
    their tight entries, F_s + G_t = P_{s+t}, in `_band`'s row order: the
    states of the slope merge, and the whole rectangle wherever a run of
    equal slopes of f meets one of g.  The resultant took the permanent of
    these rows with the assignment engine before the merge read it off."""
    fl, gl = list(fv.values()), list(gv.values())
    fm = [mag for mag, _ in fl]
    gm = [mag for mag, _ in gl]
    m, n = len(fm) - 1, len(gm) - 1
    df = [b - a for a, b in zip(fm, fm[1:])] + [NEG_INF]
    dg = [b - a for a, b in zip(gm, gm[1:])] + [NEG_INF]
    frows, grows = [{0: fl[0]}], [{0: gl[0]}]
    i = j = 0
    while i < m or j < n:
        a, b = df[i], dg[j]
        if a > b:
            i += 1
            frows[j][i + j] = fl[i]
            grows.append({i + j: gl[j]})
        elif b > a:
            j += 1
            grows[i][i + j] = gl[j]
            frows.append({i + j: fl[i]})
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
            i, j = i2, j2
    # The last f-row and g-row, t = n and s = m, are not rows of the band.
    return frows[:n] + grows[:m]


def engine(scale, rows, fv, gv):
    """The assignment engine on band rows; two constants, whose band is
    empty, give One, ghost when both are ghost."""
    if not rows:
        return Element(0, fv[0][1] and gv[0][1])
    return assignment(scale, rows)


@settings(max_examples=300, deadline=None)
@given(pairs())
@example((P("3v*x^2"), P("(x+1)*(x+2v)")))
@example((P("x^2 + 1v*x + 2"), P("1/1000003*x")))
@example((P("(x+1)^2*(x+2)"), P("(x+1)*(x+2)^2")))
def test_tight_rows_are_the_band_entries_on_the_product(pair):
    # Brute force over the full band: f-row t keeps F_s at column s + t,
    # and g-row s keeps G_t there, exactly when F_s + G_t = P_{s+t}.
    f, g = pair
    fv, gv = (dict(enumerate(view)) for view in _joint(f, g)[1:])
    product, n = _convolve(fv, gv), len(gv) - 1

    def tight(s, t):
        return fv[s][0] + gv[t][0] == product[s + t][0]

    band = _band(fv, gv)
    want = [{c: e for c, e in row.items()
             if (tight(c - r, r) if r < n else tight(r - n, c - r + n))}
            for r, row in enumerate(band)]
    rows = tight_rows(fv, gv)
    assert rows == want
    for row in rows:
        assert row and list(row) == sorted(row)


@st.composite
def merge_pairs(draw):
    """`pairs`, or two products with a common factor, so that corner
    slopes are shared; either side may be shifted by a power of x."""
    if draw(st.booleans()):
        f, g = draw(pairs())
    else:
        h = draw(polys(max_deg=3))
        f, g = draw(polys(max_deg=5)) * h, draw(polys(max_deg=5)) * h
    return [p * Poly({draw(st.integers(0, 2)): Element(0)}) for p in (f, g)]


@settings(max_examples=300, deadline=None)
@given(merge_pairs())
@example([P("(x+1)^2*(x+2)"), P("(x+1)*(x+2)^2")])
@example([P("3v*x^2"), P("(x+1)*(x+2v)")])
@example([P("2v"), P("5v*x")])
@example([P("x^3 + 1v*x^2 + 2"), P("x^2 + 1v")])
def test_merge_matches_the_tight_band_engine(pair):
    # The merge against the engine on the tight rows and on the full band
    # of the canonical images, and the raw route against the engine on
    # the full band of the raw coefficients.
    f, g = pair
    scale, fl, gl = _joint(f, g)
    fv, gv = dict(enumerate(fl)), dict(enumerate(gl))
    want = engine(scale, tight_rows(fv, gv), fv, gv)
    assert _merge(scale, fl, gl) == want == engine(scale, _band(fv, gv),
                                                   fv, gv)
    assert resultant(f, g) == want
    den, (rf, rg) = scaled([dict(sorted(p.items())) for p in (f, g)])
    assert resultant(f, g, canonical=False) == engine(den, _band(rf, rg),
                                                      rf, rg)


@settings(max_examples=300, deadline=None)
@given(pairs())
def test_common_roots_match_the_fraction_oracle(pair):
    f, g = pair
    if f.degree == 0 or g.degree == 0:
        return
    want = tangible_roots_merge(f).intersect(tangible_roots_merge(g))
    assert want == tangible_roots_oracle(f).intersect(tangible_roots_oracle(g))
    rep = decide(f, g)
    assert rep.common == want
    assert rep.relatively_prime == want.intervals.is_empty


def test_ghost_monomials_share_every_root():
    # Both forms are ghost constants once x is stripped: every point is a
    # common root, and the resultant of two ghost constants is ghost.
    for texts in [("1v*x", "2v*x"), ("1v*x^2", "3v*x^5"), ("0v*x", "0v*x")]:
        f, g = map(P, texts)
        rep = decide(f, g)
        assert rep.resultant == ghost(0), texts
        assert not rep.relatively_prime and rep.witness == 0
        assert rep.common == RootSet(IntervalSet(((NEG_INF, POS_INF),)), True)
    # A tangible constant has no root, so one ghost side is not enough.
    for texts in [("1v*x", "2*x"), ("3*x^2", "1v*x"), ("x", "x")]:
        rep = decide(*map(P, texts))
        assert rep.resultant == tangible(0) and rep.relatively_prime, texts
        assert rep.common.intervals.is_empty
    assert resultant(P("3v"), P("5v*x^2")) == ghost(0)
    assert resultant(P("3v"), P("5"), canonical=False) == tangible(0)


def test_canonical_oracles_on_examples():
    for text in ["5", "3v*x^4", "x^2 + -5*x + 0", "x^4 + 0v", "x^6 + 2*x^3",
                 "0v*x^2 + 1*x", "x^3 + 1*x^2 + 2*x + 3", "x^2 + 6v*x + 7",
                 "1/999983*x^3 + -1/1000003"]:
        f = P(text)
        assert canonical_full(f) == canonical_full_oracle(f), text
        assert tangible_roots(f) == tangible_roots_oracle(f), text


def test_evaluate_is_a_homomorphism():
    gen = Gen(101)
    for _ in range(150):
        f = gen.poly(5)
        g = gen.poly(5)
        for a in function_samples([f, g]):
            assert (f + g).evaluate(a) == f.evaluate(a) + g.evaluate(a)
            assert (f * g).evaluate(a) == f.evaluate(a) * g.evaluate(a)


def test_zero_and_constant_evaluation():
    assert Poly.zero().evaluate(tangible(3)) == ZERO
    assert P("5").evaluate(ZERO) == tangible(5)
    # Zero to the zeroth power is the unit: the constant term survives.
    assert P("x + 3").evaluate(ZERO) == tangible(3)
    assert P("x^2").evaluate(ZERO) == ZERO


@settings(max_examples=200, deadline=None)
@given(polys(max_deg=8))
def test_canonical_is_idempotent_and_function_equal(f):
    full = canonical_full(f)
    c = full.to_poly()
    assert canonical_full(c).to_poly() == c
    for a in sample_points(f):
        assert f.evaluate(a) == c.evaluate(a), (f, c, a)
    # Corner roots are nondecreasing along the hull.
    corners = full.corner_roots()
    assert all(x <= y for x, y in zip(corners, corners[1:]))


def test_canonical_rejects_zero():
    with pytest.raises(ValueError):
        canonical_full(Poly.zero())


def test_e_equiv_matches_sampled_function_equality():
    gen = Gen(103)
    for _ in range(200):
        f = gen.poly(4)
        g = gen.poly(4) if gen.rng.random() < 0.5 else canonical_full(
            f).to_poly()
        same = all(f.evaluate(a) == g.evaluate(a)
                   for a in function_samples([f, g]))
        assert e_equiv(f, g) == same, (f, g)


def test_essential_part_examples_and_equivalence():
    assert essential_part(P("x^2 + -5*x + 0")) == P("x^2 + 0")
    gen = Gen(104)
    for _ in range(100):
        f = gen.poly(5)
        assert e_equiv(essential_part(f), f)


def test_roots_against_evaluation():
    gen = Gen(105)
    for _ in range(200):
        f = gen.poly(5, 0)
        roots = tangible_roots(f)
        for a in sample_points(f):
            if a.is_zero:
                assert roots.at_bottom == f.evaluate(a).in_ghost_ideal
            elif a.is_tangible:
                member = a.mag in roots
                assert member == f.evaluate(a).in_ghost_ideal, (f, a)


def test_roots_of_products_union():
    gen = Gen(107)
    for _ in range(100):
        f = gen.poly(3)
        g = gen.poly(3)
        lhs = tangible_roots(f * g)
        rhs = tangible_roots(f).union(tangible_roots(g))
        assert lhs == rhs, (f, g)


def test_ggraph_matches_evaluation():
    gen = Gen(108)
    for _ in range(100):
        f = gen.poly(5)
        pl = ggraph(f)
        probes = sorted(set(list(pl.breakpoints)
                            + [b + Fraction(1, 7) for b in pl.breakpoints]
                            + [b - Fraction(1, 7) for b in pl.breakpoints]
                            + [Fraction(0)]))
        for x in probes:
            # Piece index; a breakpoint takes its value from the left piece.
            k = sum(1 for b in pl.breakpoints if b < x)
            mag = pl.intercepts[k] + pl.slopes[k] * x
            at_break = x in pl.breakpoints
            layer = True if at_break else pl.piece_ghost[k]
            if at_break:
                assert pl.breakpoint_ghost[pl.breakpoints.index(x)]
            got = f.evaluate(tangible(x))
            assert got.mag == mag and got.is_ghost == layer, (f, x, got)


def test_ggraph_examples():
    pl = ggraph(P("x^2 + 6v*x + 7"))
    assert pl.slopes == (0, 1, 2)
    assert pl.breakpoints == (Fraction(1), Fraction(6))
    assert pl.piece_ghost == (False, True, False)
    line = ggraph(P("x + 3"))
    assert line.slopes == (0, 1) and line.breakpoints == (Fraction(3),)
    assert ggraph(P("5")).slopes == (0,)


def test_classify_half_tangible_examples():
    assert classify_half_tangible(P("0v*x^2 + 1*x")) == (Side.LEFT,
                                                         Fraction(1))
    assert classify_half_tangible(P("1*x + 0v")) == (Side.RIGHT,
                                                     Fraction(-1))
    assert classify_half_tangible(P("(x+1)*(x+2)")) is None
    assert classify_half_tangible(P("x^2 + 6v*x + 7")) is None


def test_classify_consistent_with_values():
    gen = Gen(109)
    for _ in range(100):
        f = gen.poly(4)
        got = classify_half_tangible(f)
        if got is None:
            continue
        side, c = got
        near = [c - 2, c - Fraction(1, 2), c, c + Fraction(1, 2), c + 2]
        for x in near:
            value = f.evaluate(tangible(x))
            if side is Side.LEFT and x < c:
                assert value.is_tangible
            if side is Side.RIGHT and x > c:
                assert value.is_tangible
            if side is Side.LEFT and x >= c:
                assert value.in_ghost_ideal
            if side is Side.RIGHT and x <= c:
                assert value.in_ghost_ideal


def test_is_ghost_poly_is_functional():
    # A tangible coefficient strictly below the hull does not matter.
    f = Poly({2: ghost(0), 1: tangible(-5), 0: ghost(0)})
    assert is_ghost_poly(f)
    assert not is_ghost_poly(P("x + 1"))
    assert is_ghost_poly(Poly.zero())


def test_analyze_ghost_sum_examples():
    got = analyze_ghost_sum(P("0v*x^2 + 1*x"), P("1*x + 0v"))
    assert got == HalfTangible(Fraction(-1), Fraction(1))
    f = P("(x+2)*(x+5v)*(x+8v)*(x+9)")
    g = P("(x+3)*(x+4)*(0v*x+7)*(x+10)")
    assert analyze_ghost_sum(f, g) == CommonRoot(Fraction(3))
    assert isinstance(analyze_ghost_sum(P("x+1"), P("x+5")), NotGhostSum)
    with pytest.raises(ValueError):
        analyze_ghost_sum(P("x"), P("x"))


def test_analyze_ghost_sum_takes_one_canonical_form_per_polynomial(monkeypatch):
    # Hull computations per call: a Poly keeps its canonical form, so each
    # distinct polynomial costs one hull however many readers it has.
    hulls = []
    real = M._upper_hull

    def counted(points):
        hulls.append(points)
        return real(points)

    monkeypatch.setattr(M, "_upper_hull", counted)

    def hulls_in(call):
        hulls.clear()
        call()
        return len(hulls)

    big = "(x+1)*(x+2)*(x^2+6v*x+7)"
    # g, f and the product g*h with the cofactor.
    assert hulls_in(lambda: e_divides(P("x+1"), P(big))) == 3
    # f, and the ghost sum f + q*(x + 1) of the greatest quotient.
    assert hulls_in(lambda: divides_linear(P(big), 1)) == 2
    assert hulls_in(lambda: decide(P("(x+1)*(x+2)"), P("x+1"))) == 2
    # f + g, f and g, on the half-tangible and the common-root path.
    assert hulls_in(lambda: analyze_ghost_sum(P("0v*x^2 + 1*x"),
                                              P("1*x + 0v"))) == 3
    assert hulls_in(lambda: analyze_ghost_sum(
        P("(x+2)*(x+5v)*(x+8v)*(x+9)"), P("(x+3)*(x+4)*(0v*x+7)*(x+10)"))) == 3
    # The four calls of one resultant_sweep request share one pair.
    f, g = P("(x+1)*(x+3v)*(x+4)"), P("x^2 + 2v*x + 1")
    assert hulls_in(lambda: [fn(f, g) for fn in (
        resultant, decide, resultant_nu, resultant_nu_assignment)]) == 2


def test_each_kernel_scales_its_inputs_once(monkeypatch):
    # `sparse.scaled` is the one place that clears denominators; count its
    # calls through every module that imports it.
    import supertrop.sparse as S
    real, calls = S.scaled, []

    def counted(maps):
        calls.append(maps)
        return real(maps)

    users = {name for name, module in sys.modules.items()
             if name.startswith("supertrop")
             and getattr(module, "scaled", None) is real}
    assert users >= {"supertrop.sparse", "supertrop.poly", "supertrop.bipoly"}
    for name in users:
        monkeypatch.setattr(sys.modules[name], "scaled", counted)

    def scalings_in(call):
        calls.clear()
        call()
        return len(calls)

    f = Poly({0: tangible("1/3"), 2: ghost("2/5"), 3: tangible(1)})
    g = Poly({0: tangible(2), 1: ghost(0)})
    h = Poly({1: tangible("-1/7"), 2: tangible(0)})
    assert scalings_in(lambda: canonical_full(f)) == 1
    assert scalings_in(lambda: canonical_full(f)) == 0
    # The integer image is built from the hull that the form kept.
    assert scalings_in(lambda: M._image_of(f)) == 0
    # The two canonical forms; the merge reads their integer images.
    assert scalings_in(lambda: resultant(g, h)) == 2
    # With the canonical forms cached, nothing is scaled again, on raw
    # vectors either.
    assert scalings_in(lambda: resultant(g, h)) == 0
    assert scalings_in(lambda: resultant(g, h, canonical=False)) == 0
    assert scalings_in(lambda: resultant_nu(g, h)) == 0
    assert scalings_in(lambda: decide(g, h)) == 0
    # One product; a sum is never scaled.
    assert scalings_in(lambda: P("(x+1)*(x+2)")) == 1
    assert scalings_in(lambda: P("x^2 + 1/3*x + 2/5v")) == 0
    a, b = parse_bipoly("x + y + 0"), parse_bipoly("1*x + y + 3")
    assert scalings_in(lambda: bezout_report(a, b)) == 1


def test_parsing_a_sum_of_monomials_multiplies_nothing(monkeypatch):
    # Each term c*x^k folds into one monomial as it is read: no product,
    # no scaling, one Element for its coefficient and none for exponents.
    import supertrop.parse as parse_module
    import supertrop.sparse as S
    calls = []

    def counted(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(parse_module, "terms_mul",
                        counted("terms_mul", S.terms_mul))
    monkeypatch.setattr(S, "scaled", counted("scaled", S.scaled))
    monkeypatch.setattr(Element, "__init__",
                        counted("Element", Element.__init__))
    f = P("-13/2v*x^3 + 13/2*x^5 + -8*x^6 + 6v*x^4 + -1*x^2 + -4v + x^7")
    assert calls == ["Element"] * 6
    assert f.coeff(7) == Element(0) and f.coeff(3) == ghost("-13/2")


def test_analyze_ghost_sum_invariants_survive_optimize():
    # -O strips asserts; both invariants must still raise.  Each one is
    # forced by a patched helper on a pair whose sum is ghost.
    script = """
import types
import supertrop.poly as M
from supertrop import parse_poly as P
assert False, "not optimized"
f, g = P("0v*x^2 + 1*x"), P("1*x + 0v")

class Hollow:
    is_empty = False
    def intersect(self, other):
        return self
    def leftmost_finite(self):
        return None

flip = {M.Side.LEFT: M.Side.RIGHT, M.Side.RIGHT: M.Side.LEFT}
real = M.classify_half_tangible
patches = [
    ("tangible_roots", lambda p: types.SimpleNamespace(intervals=Hollow())),
    ("classify_half_tangible", lambda p: (flip[real(p)[0]], real(p)[1])),
]
for name, fake in patches:
    saved = getattr(M, name)
    setattr(M, name, fake)
    try:
        M.analyze_ghost_sum(f, g)
    except AssertionError as err:
        print(name, err.args[0][0])
    setattr(M, name, saved)
"""
    src = str(Path(supertrop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == [
        "tangible_roots nonempty common root set without a finite point",
        "classify_half_tangible half-tangible thresholds out of order"]


def test_layer_perturbation_keeps_ghost_sums_ghost():
    gen = Gen(110)
    for _ in range(100):
        f = gen.poly(4)
        g = Poly({i: tangible(c.mag) if gen.rng.random() < 0.5
                  else ghost(c.mag) for i, c in f.items()})
        assert is_ghost_poly(f + g)
        p = gen.poly(3, 0)
        q = Poly({i: tangible(c.mag) if gen.rng.random() < 0.5
                  else ghost(c.mag) for i, c in p.items()})
        assert is_ghost_poly(p * f + q * g), (f, g, p, q)


def test_frobenius_is_substitution_and_morphism():
    gen = Gen(111)
    assert frobenius(P("x + 3"), 2) == P("x^2 + 3")
    for _ in range(60):
        f = gen.poly(3)
        g = gen.poly(3)
        m = gen.rng.randint(1, 3)
        assert frobenius(f * g, m) == frobenius(f, m) * frobenius(g, m)
        for a in sample_points(f):
            if a.is_zero:
                continue
            assert frobenius(f, m).evaluate(a) == f.evaluate(a ** m)


def test_root_transport():
    gen = Gen(112)
    for _ in range(60):
        f = gen.poly(3)
        m = gen.rng.randint(1, 3)
        b = gen.fraction()
        r = tangible_roots(f).intervals
        fr = tangible_roots(frobenius(f, m)).intervals
        assert fr.intervals == tuple(
            (lo / m if lo != NEG_INF else lo, hi / m if hi != POS_INF else hi)
            for lo, hi in r.intervals)
        ms = tangible_roots(mul_shift(f, b)).intervals
        assert ms.intervals == tuple(
            (lo - b if lo != NEG_INF else lo, hi - b if hi != POS_INF else hi)
            for lo, hi in r.intervals)


def test_shift_examples():
    assert mul_shift(P("x + 3"), 2) == P("2*x + 3")
    assert mul_shift(P("x^2 + 5"), 0) == P("x^2 + 5")
    assert add_shift(P("x^2"), tangible(5)) == P("x^2 + 5v*x + 10")
    gen = Gen(113)
    for _ in range(40):
        f = gen.poly(3)
        beta = gen.element()
        shifted = add_shift(f, beta)
        for a in sample_points(shifted):
            assert shifted.evaluate(a) == f.evaluate(a + beta)
