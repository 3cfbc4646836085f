"""Two-variable polynomials, specialization, grid intersection counts."""

from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from supertrop import (BiPoly, Element, ONE, ZERO, Poly, bezout_report,
                       common_roots_sample, ghost, parse_bipoly, parse_poly,
                       partial_frobenius, resultant, resultant_in_second,
                       tangible)
from supertrop import bipoly, sparse
from supertrop.bipoly import (DEFAULT_STEP, DEFAULT_WINDOW, BezoutReport,
                              _cluster, _row_ghost, _scan)
from supertrop.checks import Gen, permanent
from supertrop.sparse import scaled
from test_resultant import dense

B = parse_bipoly
P = parse_poly


def test_evaluate_examples():
    f = B("x + y + 8")
    assert f.evaluate(tangible(2), tangible(3)) == tangible(8)
    assert f.evaluate(tangible(9), tangible(3)) == tangible(9)
    assert f.evaluate(tangible(8), tangible(3)) == ghost(8)
    g = B("x*y + 0")
    assert g.evaluate(tangible(5), tangible(-5)) == ghost(0)


def test_evaluate_matches_the_term_sum():
    # The sum over the terms c * x^i * y^j, against the evaluation through
    # `specialize_y`, at Zero, ghost and tangible arguments.
    gen = Gen(506)
    args = [ZERO] * 2 + [gen.element(ghost_p=0.5) for _ in range(10)]
    for _ in range(60):
        f = gen.bipoly(3)
        for x in args:
            for y in args:
                total = ZERO
                for (i, j), c in f.items():
                    total = total + c * x ** i * y ** j
                assert f.evaluate(x, y) == total, (f, x, y)
    assert BiPoly.zero().evaluate(ZERO, ZERO) == ZERO
    assert B("x*y + 2*x + 3v").evaluate(ZERO, tangible(1)) == ghost(3)
    assert B("x*y + 2*y + 1").evaluate(tangible(4), ZERO) == tangible(1)
    assert B("y^2 + 0").evaluate(ZERO, ZERO) == tangible(0)


def test_specialize_examples():
    f = B("x*y + 2*x + 3v*y + 1")
    assert f.specialize_x(tangible(4)) == P("4*x + 6")
    assert f.specialize_y(tangible(0)) == P("2*x + 3v")
    assert B("x + 3").specialize_y(tangible(5)) == P("x + 3")


def test_algebra_properties():
    gen = Gen(501)
    for _ in range(100):
        f, g, h = (gen.bipoly(3) for _ in range(3))
        assert f + g == g + f
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        x, y = gen.element(), gen.element()
        assert (f + g).evaluate(x, y) == f.evaluate(x, y) + g.evaluate(x, y)
        assert (f * g).evaluate(x, y) == f.evaluate(x, y) * g.evaluate(x, y)


def test_specialization_commutes_with_evaluation():
    gen = Gen(502)
    for _ in range(150):
        f = gen.bipoly(3)
        a, b = tangible(gen.fraction()), tangible(gen.fraction())
        assert f.specialize_x(a).evaluate(b) == f.evaluate(a, b)
        assert f.specialize_y(b).evaluate(a) == f.evaluate(a, b)


def test_partial_frobenius():
    f = B("x*y + 2*x + 1")
    assert partial_frobenius(f, 3, "x") == B("x^3*y + 2*x^3 + 1")
    assert partial_frobenius(f, 2, "y") == B("x*y^2 + 2*x + 1")
    with pytest.raises(ValueError):
        partial_frobenius(f, 0, "x")
    with pytest.raises(ValueError):
        partial_frobenius(f, 2, "z")

    gen = Gen(503)
    for _ in range(60):
        g = gen.bipoly(2)
        m = gen.rng.randint(1, 3)
        x, y = gen.element(), gen.element()
        assert partial_frobenius(g, m, "x").evaluate(x, y) == \
            g.evaluate(x ** m, y)


def test_frobenius_transports_hits():
    f, g = B("x + y + 0"), B("1*x + y + 3")
    assert common_roots_sample(f, g) == [(Fraction(2), Fraction(2))]
    moved = common_roots_sample(partial_frobenius(f, 2, "x"),
                                partial_frobenius(g, 2, "x"))
    assert moved == [(Fraction(1), Fraction(2))]


def test_resultant_in_second():
    f = B("x*y + 2*x + 3v*y + 1")
    g = B("y + 4")
    # Permanent of [[2x + 1, x + 3v], [4, 0]] in the x-semiring.
    assert resultant_in_second(f, g) == P("4*x + 7v")
    assert resultant_in_second(B("y + x"), B("y + 4")) == P("x + 4")
    assert resultant_in_second(B("y + x"), B("y + x")) == P("0v*x")
    with pytest.raises(ValueError):
        resultant_in_second(f, B("x + 4"))
    with pytest.raises(ValueError):
        resultant_in_second(BiPoly.zero(), g)


def test_resultant_specializes():
    gen = Gen(504)
    for _ in range(100):
        f = gen.bipoly(3, need_y=True)
        g = gen.bipoly(3, need_y=True)
        r = resultant_in_second(f, g)
        c = tangible(gen.fraction())
        spec = resultant(f.specialize_x(c), g.specialize_x(c),
                         canonical=False)
        assert r.evaluate(c) == spec, (f, g, c)


def eliminate_oracle(frows: list, grows: list) -> Poly:
    """The permanent of the Sylvester matrix over the `Poly` semiring, from
    the y-coefficients as {degree in x: Element} maps (None for a missing
    one)."""
    fv, gv = ([Poly(row or {}) for row in rows] for rows in (frows, grows))
    return permanent(dense([dict(enumerate(v)) for v in (fv, gv)],
                           zero=Poly.zero()),
                     zero=Poly.zero(), one=Poly.constant(ONE))


def from_rows(rows: list) -> BiPoly:
    return BiPoly({(i, j): c for j, row in enumerate(rows) if row
                   for i, c in row.items()})


# A small pool of magnitudes forces ties; the others have denominators up
# to 7, so the scale is an lcm of distinct ones.
_mags = st.one_of(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-1, 3)]),
                  st.fractions(-3, 3, max_denominator=7))
# A y-coefficient: a polynomial in x, often of one term.
_x_polys = st.dictionaries(st.integers(0, 2), st.builds(Element, _mags, st.booleans()),
                           min_size=1, max_size=3)
# The y-coefficients of degree 1 to 4 in y; below the top one, None leaves a
# coefficient out, so Zero entries fall inside the Sylvester band.
_y_rows = st.integers(1, 4).flatmap(
    lambda d: st.tuples(*[st.none() | _x_polys] * d, _x_polys).map(list))


@settings(max_examples=200, deadline=None)
@given(_y_rows, _y_rows)
@example([{0: tangible(Fraction(2, 3))}, None, {0: tangible(Fraction(3, 2))}],
         [{0: ghost(0)}, {0: ONE, 1: tangible(2)}])
def test_resultant_in_second_matches_the_poly_permanent(frows, grows):
    # The exact formal coefficients, not only the function: equal maps.
    assert resultant_in_second(from_rows(frows), from_rows(grows)) == \
        eliminate_oracle(frows, grows)


def test_elimination_scales_once_and_builds_only_the_output(monkeypatch):
    # Arithmetic on Poly values would scale every product of two
    # multi-term polynomials and build Elements for every sum and product.
    frows = [{0: tangible(Fraction(-1, 2)), 1: tangible(Fraction(1, 3))},
             {2: ONE}, {1: ghost(2)}, {0: tangible(Fraction(1, 2))}]
    grows = [{0: ONE, 2: ghost(1)}, {0: tangible(Fraction(1, 5)), 1: tangible(3)},
             None, {0: ONE}]
    f, g = from_rows(frows), from_rows(grows)
    scale_calls, built = [], []
    real_scaled, real_init = sparse.scaled, Element.__init__

    def counting_scaled(maps):
        scale_calls.append(len(maps))
        return real_scaled(maps)

    def counting_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(sparse, "scaled", counting_scaled)
    monkeypatch.setattr(bipoly, "scaled", counting_scaled)
    monkeypatch.setattr(Element, "__init__", counting_init)
    r = resultant_in_second(f, g)
    monkeypatch.undo()
    assert scale_calls == [2]
    assert len(built) == len(r._coeffs) > 1
    assert r == eliminate_oracle(frows, grows)


def test_common_roots_examples():
    f, g = B("x + y + 0"), B("1*x + y + 3")
    assert common_roots_sample(f, g) == [(Fraction(2), Fraction(2))]
    assert common_roots_sample(B("x + 0"), B("x + 5")) == []
    same = common_roots_sample(f, f)
    assert len(same) > 10


def test_common_roots_validation():
    f = B("x + y + 0")
    with pytest.raises(ValueError):
        common_roots_sample(BiPoly.zero(), f)
    with pytest.raises(ValueError):
        common_roots_sample(f, f, window=(3, -3, -1, 1))
    with pytest.raises(ValueError):
        common_roots_sample(f, f, step=0)


def test_bezout_report_examples():
    rep = bezout_report(B("x + y + 0"), B("1*x + y + 3"))
    assert (rep.m, rep.n, rep.bound) == (1, 1, 1)
    assert rep.hits == ((Fraction(2), Fraction(2)),)
    assert rep.component_count == 1 and rep.ordinary_count == 1
    assert rep.bound_holds

    conic = bezout_report(B("(x+1)*(y+2)"), B("x + y + 8"))
    assert conic.ordinary_count == 2 and conic.bound == 2
    assert (Fraction(1), Fraction(8)) in conic.hits
    assert (Fraction(8), Fraction(2)) in conic.hits

    # Equal lines share a whole curve: one extended component, nothing
    # ordinary, bound trivially holds.
    same = bezout_report(B("x + y + 0"), B("x + y + 0"))
    assert same.ordinary_count == 0
    assert same.component_count == 1
    assert same.bound_holds

    none = bezout_report(B("x + 0"), B("x + 5"))
    assert none.hits == () and none.component_count == 0


def test_bezout_bound_random():
    gen = Gen(505)
    for _ in range(40):
        f, g = gen.bipoly(3), gen.bipoly(3)
        rep = bezout_report(f, g)
        assert rep.bound_holds
        assert rep.ordinary_count <= rep.m * rep.n
        assert rep.ordinary_count <= rep.component_count <= len(rep.hits) \
            or rep.component_count == len(rep.hits) == 0


# -- per-point oracle for the row-sweep scan ---------------------------------


def _ghost_at(terms, a: int, b: int) -> bool:
    # Ghost value at the point: the maximum is attained twice, or once by
    # a ghost term.  Terms are pre-scaled integers, a and b likewise.
    best = None
    ghost_ = False
    for m, i, j, g in terms:
        v = m + i * a + j * b
        if best is None or v > best:
            best, ghost_ = v, g
        elif v == best:
            ghost_ = True
    return ghost_


def oracle_units(f, g, window, step):
    """The pair's terms, the window and the step in the scan's integer
    units: (f's terms, g's terms, scale, (x0, x1, y0, y1), step)."""
    xlo, xhi, ylo, yhi = (Fraction(w) for w in window)
    mags = [c.mag for p in (f, g) for _, c in p.items()]
    scale = 2 * lcm(xlo.denominator, xhi.denominator, ylo.denominator,
                    yhi.denominator, step.denominator,
                    *(m.denominator for m in mags))
    ft, gt = ([(int(c.mag * scale), i, j, c.is_ghost)
               for (i, j), c in p.items()] for p in (f, g))
    box = tuple(int(w * scale) for w in (xlo, xhi, ylo, yhi))
    return ft, gt, scale, box, int(step * scale)


def oracle_scan(f, g, window, step):
    """Probe every grid point, then the half-step ring around each hit."""
    ft, gt, scale, (x0, x1, y0, y1), step_s = oracle_units(f, g, window, step)
    half = step_s // 2

    def is_hit(a, b):
        return _ghost_at(ft, a, b) and _ghost_at(gt, a, b)

    xs = range(x0, x1 + 1, step_s)
    ys = range(y0, y1 + 1, step_s)
    hits = {(a, b) for a in xs for b in ys if is_hit(a, b)}
    refined = set(hits)
    for a, b in hits:
        for da in (-half, 0, half):
            for db in (-half, 0, half):
                p = (a + da, b + db)
                if p not in refined and is_hit(*p):
                    refined.add(p)
    return refined, scale


def oracle_report(f, g, window=DEFAULT_WINDOW, step=DEFAULT_STEP):
    """Oracle scan, then the point-by-point `flood_fill`."""
    step = Fraction(step)
    refined, scale = oracle_scan(f, g, window, step)
    components, ordinary = flood_fill(refined, int(step * scale) // 2)
    m, n = f.total_degree, g.total_degree
    return BezoutReport(
        m=m, n=n, bound=m * n,
        hits=tuple((Fraction(a, scale), Fraction(b, scale))
                   for a, b in sorted(refined)),
        component_count=components, ordinary_count=ordinary,
        bound_holds=ordinary <= m * n,
        window=tuple(Fraction(w) for w in window), step=step)


small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def scan_cases(draw):
    """Pairs with ghost and tangible terms, forced ties, odd windows."""
    xlo, ylo = draw(small), draw(small)
    width = st.fractions(min_value=0, max_value=4, max_denominator=4)
    window = (xlo, xlo + draw(width), ylo, ylo + draw(width))
    step = draw(st.sampled_from([Fraction(1, 4), Fraction(1, 3),
                                 Fraction(2, 5), Fraction(1, 2),
                                 Fraction(3, 4), Fraction(1)]))
    exps = [(i, j) for i in range(4) for j in range(4 - i)]
    # A grid point of the window where tie terms meet.
    px = xlo + step * draw(st.integers(0, int((window[1] - xlo) / step)))
    py = ylo + step * draw(st.integers(0, int((window[3] - ylo) / step)))

    def poly():
        coeffs = {e: Element(draw(small), draw(st.booleans()))
                  for e in draw(st.lists(st.sampled_from(exps), min_size=1,
                                         max_size=5, unique=True))}
        # Two or three terms of equal value at (px, py): three lines
        # through one point, or parallel lines tied on the row y = py
        # when two of them share the x exponent.
        top = draw(small) + 5
        for i, j in draw(st.lists(st.sampled_from(exps), max_size=3,
                                  unique=True)):
            coeffs[(i, j)] = Element(top - i * px - j * py,
                                     draw(st.booleans()))
        return BiPoly(coeffs)

    return poly(), poly(), window, step


def scan_points(f, g, window, step):
    """`_scan` as the oracle's point set, after checking the row layout:
    increasing nonempty rows, each a tuple of runs (first, last) on the
    half-step lattice of the window's corner, each run strictly after the
    one before it."""
    rows, scale, half = _scan(f, g, window, step)
    x0 = int(Fraction(window[0]) * scale)
    assert list(rows) == sorted(rows)
    assert half == int(step * scale) // 2
    for runs in rows.values():
        assert runs and type(runs) is tuple
        for before, (first, last) in zip((None,) + runs, runs):
            assert first <= last
            assert (first - x0) % half == (last - x0) % half == 0
            assert before is None or before[1] < first
    return {(a, b) for b, runs in rows.items() for first, last in runs
            for a in range(first, last + 1, half)}, scale


@settings(max_examples=200, deadline=None)
@given(scan_cases())
def test_row_sweep_matches_point_oracle(case):
    f, g, window, step = case
    assert scan_points(f, g, window, step) == oracle_scan(f, g, window, step)


@settings(max_examples=100, deadline=None)
@given(scan_cases())
def test_bezout_report_matches_oracle_on_odd_windows(case):
    f, g, window, step = case
    assert bezout_report(f, g, window, step) == \
        oracle_report(f, g, window, step)


# All four terms of f equal 2 at (1, 1), and on the row y = 1 both of its
# pairs of parallel lines tie; the three terms of g meet there too.
FORCED_TIES = (B("1*x + 1*y + 2 + x*y"), B("x + y + 1v"),
               (Fraction(-5, 3), Fraction(7, 2), Fraction(-2), Fraction(13, 4)))


def test_row_sweep_forced_ties():
    f, g, window = FORCED_TIES
    for step in (Fraction(1, 3), Fraction(3, 4), Fraction(1, 2)):
        refined, scale = scan_points(f, g, window, step)
        assert refined and (refined, scale) == oracle_scan(f, g, window, step)


def test_bezout_report_matches_oracle_on_check_pairs():
    gen = Gen(42010)  # the pairs of checks.check_bezout_bound
    for _ in range(100):
        f, g = gen.bipoly(3), gen.bipoly(3)
        assert bezout_report(f, g) == oracle_report(f, g), (f, g)


def test_scan_keeps_a_patch_as_one_run_per_row():
    # The ghost cells x <= 0 and y <= 0 share a quadrant: the refined hits
    # fill a rectangle of the half-step lattice, one run on each row.
    f, g = B("x + 0v"), B("y + 0v")
    rows, _, _ = _scan(f, g, DEFAULT_WINDOW, DEFAULT_STEP)
    assert all(len(runs) == 1 for runs in rows.values())
    hits = common_roots_sample(f, g)
    columns = {x for x, _ in hits}
    assert len(hits) == len(rows) * len(columns) == 82 * 82


def test_bezout_report_fine_step():
    # A 20001 x 20001 grid: the sweep visits the few rows where the two
    # inputs' ghost loci can meet, not 20001 rows or 4e8 points.
    rep = bezout_report(B("x + y + 0"), B("1*x + y + 3"),
                        step=Fraction(1, 1000))
    assert rep.hits == ((Fraction(2), Fraction(2)),)
    assert (rep.component_count, rep.ordinary_count) == (1, 1)


# -- common pieces: the sweep skips only rows with no common point ----------


def common_pieces(f, g, window, step):
    """The boxes `_scan` gives `_pieces`, and the common pieces `_meet`
    returns to it."""
    boxes, common = [], []
    pieces, meet = bipoly._pieces, bipoly._meet
    with mock.patch.object(bipoly, "_pieces",
                           lambda *args: boxes.append(args[2:])
                           or pieces(*args)), \
            mock.patch.object(bipoly, "_meet",
                              lambda *args: common.extend(meet(*args))
                              or common):
        _scan(f, g, window, step)
    return boxes, common


# A ghost cell bounded by a horizontal tie at y = 1/3 (8/3 in the scan's
# integer units) and the window's sides: its row range must come from the
# cell's own half-planes.
GHOST_CELL = (B("-1*y + 0v"), B("0v*y^3 + y^2 + y + 1"), (0, 0, 0, 1),
              Fraction(1, 4))


@settings(max_examples=300, deadline=None)
@given(scan_cases())
@example(GHOST_CELL)
# Two edges on one line: their common rows are the overlap of their ranges.
@example((B("x + y + 0"), B("x + y + 0v"), DEFAULT_WINDOW, DEFAULT_STEP))
# Pairs of parallel lines tied on a whole row.
@example(FORCED_TIES + (Fraction(1, 3),))
def test_candidate_rows_hold_every_common_row(case):
    # Against the point oracle: every base row with a column of the
    # widened window where both inputs are ghost is a row of a common piece.
    ft, gt, _, (x0, x1, y0, y1), step_s = oracle_units(*case)
    half = step_s // 2
    boxes, common = common_pieces(*case)
    assert boxes == [(x0 - half, x1 + half, y0 - half, y1 + half)] * 2
    for b in range(y0, y1 + 1, step_s):
        if any(_ghost_at(ft, a, b) and _ghost_at(gt, a, b)
               for a in range(x0 - half, x1 + half + 1)):
            assert any(lo <= b <= hi for lo, hi, *_ in common), (case, b)


@settings(max_examples=100, deadline=None)
@given(scan_cases())
@example(GHOST_CELL)
@example((B("x + y + 0"), B("x + y + 0v"), DEFAULT_WINDOW, DEFAULT_STEP))
@example(FORCED_TIES + (Fraction(1, 3),))
def test_row_read_matches_point_oracle(case):
    # Every integer row the scan can read, the half rows just outside the
    # window included, holds exactly the oracle's ghost columns: those of
    # each input on its pieces, and those of both on their meet.
    f, g, window, step = case
    ft, gt, scale, (x0, x1, y0, y1), step_s = oracle_units(*case)
    half = step_s // 2
    den, views = scaled([f._coeffs, g._coeffs])
    fp, gp = (bipoly._pieces(view, scale // den, x0 - half, x1 + half,
                             y0 - half, y1 + half) for view in views)
    common = bipoly._meet(fp, gp)
    xs = range(x0 - half, x1 + half + 1)
    for b in range(y0 - half, y1 + half + 1):
        reads = [[a for lo, hi in _row_ghost(pieces, b)
                  for a in range(lo, hi + 1)] for pieces in (fp, gp, common)]
        fcols, gcols = ([a for a in xs if _ghost_at(terms, a, b)]
                        for terms in (ft, gt))
        assert reads == [fcols, gcols, sorted(set(fcols) & set(gcols))], \
            (case, b)


def count_row_ghost(monkeypatch) -> list:
    calls = []
    real = bipoly._row_ghost
    monkeypatch.setattr(bipoly, "_row_ghost",
                        lambda *args: calls.append(args) or real(*args))
    return calls


def test_scan_rows_do_not_grow_with_step_or_window(monkeypatch):
    # Sweeping every base row would take 166, 40,006 and 800,006 row reads
    # at the three steps.  The exact meet of the two lines gives one
    # candidate row, y = 2, at every step and in both windows: its read and
    # those of the half rows below and above it.
    calls = count_row_ghost(monkeypatch)
    f, g = B("x + y + 0"), B("1*x + y + 3")
    wide = (-100000, 100000, -100000, 100000)
    counts = []
    for window, step in ((DEFAULT_WINDOW, Fraction(1, 4)),
                         (DEFAULT_WINDOW, Fraction(1, 1000)),
                         (DEFAULT_WINDOW, Fraction(1, 20000)),
                         (wide, DEFAULT_STEP)):
        calls.clear()
        assert bezout_report(f, g, window, step).hits == \
            ((Fraction(2), Fraction(2)),)
        counts.append(len(calls))
    assert counts == [3] * 4


def test_scan_clips_pieces_to_the_window(monkeypatch):
    # The lines' pieces cross at (2, 2), right of the window.  Clipped to
    # the window, no piece of f meets a piece of g, so no row is read.
    calls = count_row_ghost(monkeypatch)
    assert common_roots_sample(B("x + y + 0"), B("1*x + y + 3"),
                               (-10, 0, -10, 10)) == []
    assert calls == []


# -- run clustering against a point-by-point flood fill ----------------------


def flood_fill(points, half):
    """(components, ordinary points) of a set of lattice points, reached
    point by point over the 7x7 and 25x25 half-step neighborhoods."""
    near = [(i * half, j * half) for i in range(-3, 4) for j in range(-3, 4)]
    far = [(i * half, j * half) for i in range(-12, 13)
           for j in range(-12, 13) if i or j]
    left, components, ordinary = set(points), 0, 0
    while left:
        start = left.pop()
        components += 1
        todo, size = [start], 1
        while todo:
            a, b = todo.pop()
            for da, db in near:
                q = (a + da, b + db)
                if q in left:
                    left.remove(q)
                    todo.append(q)
                    size += 1
        a, b = start
        if size == 1 and not any((a + da, b + db) in points for da, db in far):
            ordinary += 1
    return components, ordinary


def cluster_points(points, half, cuts=()):
    """`_cluster` on the rows of runs of `points`: a run takes the next
    point one half step on, unless that point is in `cuts`, so runs one
    half step apart, which `_scan` may return, come from `cuts`."""
    rows = {}
    for a, b in sorted(points, key=lambda p: (p[1], p[0])):
        runs = rows.setdefault(b, [])
        if runs and a == runs[-1][1] + half and (a, b) not in cuts:
            runs[-1] = (runs[-1][0], a)
        else:
            runs.append((a, a))
    return _cluster({b: tuple(runs) for b, runs in rows.items()}, half)


U_SHAPE = ({(0, v) for v in range(0, 7, 3)} | {(10, v) for v in range(0, 7, 3)}
           | {(u, 6) for u in range(0, 11, 2)})


@pytest.mark.parametrize("cells, components, ordinary", [
    # Two runs of the row v = 0 that join only through the row v = 6.
    (U_SHAPE, 1, 0),
    # The bottom bar with gaps of three half steps still joins them; cut
    # by a gap of four, it does not.
    ((U_SHAPE - {(6, 6), (8, 6)}) | {(7, 6)}, 1, 0),
    (U_SHAPE - {(6, 6)}, 2, 0),
    # Gaps of exactly three half steps link, gaps of four do not: along
    # a row, across rows, and diagonally.
    ({(0, 0), (3, 0), (7, 0)}, 2, 0),
    ({(0, 0), (0, 3), (0, 7)}, 2, 0),
    ({(0, 0), (3, 3), (7, 7)}, 2, 0),
    ({(0, 0), (3, 3), (7, 6)}, 2, 0),
    # A lone point with another hit exactly 12 or 13 half steps away.
    ({(0, 0), (12, 0)}, 2, 0),
    ({(0, 0), (13, 0)}, 2, 2),
    ({(0, 0), (12, -12)}, 2, 0),
    ({(0, 0), (13, 12)}, 2, 2),
    ({(0, 0), (-5, 13)}, 2, 2),
    ({(0, 0), (0, 12), (1, 12)}, 2, 0),
    ({(0, 0), (0, 13), (1, 13)}, 2, 1),
    (set(), 0, 0),
])
def test_run_clustering_cases(cells, components, ordinary):
    for half, ox, oy in ((1, 0, 0), (3, -7, 5)):
        points = {(ox + u * half, oy + v * half) for u, v in cells}
        assert cluster_points(points, half) == flood_fill(points, half) \
            == (components, ordinary)


@st.composite
def lattice_sets(draw):
    """Points of a half-step lattice with an offset, sparse or crowded, and
    the points where a run is cut short."""
    half = draw(st.integers(1, 3))
    ox, oy = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
    side = draw(st.integers(0, 40))
    cells = draw(st.sets(st.tuples(st.integers(0, side), st.integers(0, side)),
                         max_size=80))
    cuts = draw(st.sets(st.sampled_from(sorted(cells)))) if cells else set()
    return ({(ox + u * half, oy + v * half) for u, v in cells}, half,
            {(ox + u * half, oy + v * half) for u, v in cuts})


@settings(max_examples=300, deadline=None)
@given(lattice_sets())
# On the row y = 2 with half 2, cut before x = 3: the runs (1, 1) and
# (3, 5) sit one half step apart, and a lone point lies 13 half steps on.
@example(({(1, 2), (3, 2), (5, 2), (31, 2)}, 2, {(3, 2)}))
def test_run_clustering_matches_flood_fill(case):
    points, half, cuts = case
    assert cluster_points(points, half, cuts) == flood_fill(points, half)
