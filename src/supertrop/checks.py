"""Randomized property checks shared by the test suite and `selfcheck`.

The oracle routes live here, not in the library, because only the checks
and the corpus call them: `permanent` (a subset DP over any semiring),
`permanent_oracle` (the permanent as a sum over all permutations, on
scaled integers),
`resultant_recursive` (constant-term peeling),
`resultant_tangible_product` (the closed form for tangible inputs) and
`resultant_quadratic` (the closed form against a monic quadratic).  Each
is compared with `resultant`, or with the other permanent, on its own
domain.

Each check function fixes its own seed and case count, so running one from
pytest and from the command line exercises identical cases.  A failure
raises AssertionError with the offending inputs in the message; success
returns the number of cases checked.  `CHECKS` lists them all in the
order they are reported.

`run_corpus` replays the worked examples stored in corpus.json through
the library and these oracles, and returns a list of per-entry results.
The corpus is one table with one verdict: `_ENTRIES` maps each entry kind
to a function of the entry that returns (got, want), and an entry fails
exactly when the two differ.  Optional fields are checked only where an
entry has them.

`outcome` runs one check or one entry: any exception it raises, a wrong
answer or a crash, is that one name's failure.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from importlib import resources
from random import Random

from .bipoly import BiPoly, bezout_report, resultant_in_second
from .divide import (_residual, divides_linear, radical_member_check,
                     verify_division)
from .element import Element, ONE, ZERO, ghost, tangible
from .factor import e_divides, expand, factor_min_ghosts, split_tan_intan
from .intervals import IntervalSet
from .parse import parse_bipoly, parse_element, parse_poly
from .poly import (CommonRoot, HalfTangible, NotGhostSum, Poly, _corners,
                   add_shift, analyze_ghost_sum, canonical_full,
                   classify_half_tangible, e_equiv, essential_part, frobenius,
                   full_from_corners, ggraph, is_ghost_poly, mul_shift,
                   tangible_roots)
from .resultant import decide, resultant, resultant_nu, sylvester
from .sparse import scaled


class Gen:
    """Deterministic supply of random domain values."""

    def __init__(self, seed: int):
        self.rng = Random(seed)

    def fraction(self, lo: int = -9, hi: int = 9) -> Fraction:
        # Halves keep magnitudes small and exercise non-integer arithmetic.
        return Fraction(self.rng.randint(2 * lo, 2 * hi), 2)

    def element(self, ghost_p: float = 0.35) -> Element:
        return Element(self.fraction(), self.rng.random() < ghost_p)

    def poly(self, max_deg: int = 5, min_deg: int = 1, keep_p: float = 0.65,
             ghost_p: float = 0.35) -> Poly:
        """Sparse nonzero polynomial with degree in [min_deg, max_deg]."""
        deg = self.rng.randint(min_deg, max_deg)
        coeffs = {deg: self.element(ghost_p)}
        for i in range(deg):
            if self.rng.random() < keep_p:
                coeffs[i] = self.element(ghost_p)
        return Poly(coeffs)

    def canonical_poly(self, max_deg: int = 5, min_deg: int = 1) -> Poly:
        return canonical_full(self.poly(max_deg, min_deg)).to_poly()

    def corners(self, count: int, distinct: bool = False) -> list[Fraction]:
        if distinct:
            vals: set[Fraction] = set()
            while len(vals) < count:
                vals.add(self.fraction())
            return sorted(vals)
        return sorted(self.fraction() for _ in range(count))

    def monic_full(self, max_deg: int = 8, min_deg: int = 1,
                   ghost_p: float = 0.4) -> Poly:
        """Canonical full polynomial with tangible leading coefficient 1."""
        deg = self.rng.randint(min_deg, max_deg)
        corners = self.corners(deg)
        flags = [self.rng.random() < ghost_p for _ in range(deg)] + [False]
        raw = full_from_corners(corners, flags)
        return canonical_full(raw).to_poly()

    def full_poly(self, max_deg: int = 4, min_deg: int = 1) -> Poly:
        """Canonical full polynomial, arbitrary layers and lead magnitude."""
        deg = self.rng.randint(min_deg, max_deg)
        corners = self.corners(deg)
        flags = [self.rng.random() < 0.4 for _ in range(deg + 1)]
        raw = full_from_corners(corners, flags, lead_mag=self.fraction())
        return canonical_full(raw).to_poly()

    def tangible_split(self, max_deg: int = 5) -> tuple[Poly, list[Fraction]]:
        """Monic product of linears with distinct roots, plus the roots."""
        deg = self.rng.randint(1, max_deg)
        roots = self.corners(deg, distinct=True)
        f = Poly.constant(ONE)
        for a in roots:
            f = f * Poly.linear(a)
        return f, roots

    def bipoly(self, max_total: int = 3, min_total: int = 1,
               need_y: bool = False, keep_p: float = 0.5) -> BiPoly:
        d = self.rng.randint(min_total, max_total)
        tops = [(i, d - i) for i in range(d + 1)]
        if need_y:
            tops = [(i, j) for i, j in tops if j >= 1]
        top = self.rng.choice(tops)
        coeffs = {top: self.element()}
        for i in range(d + 1):
            for j in range(d + 1 - i):
                if (i, j) != top and self.rng.random() < keep_p:
                    coeffs[(i, j)] = self.element()
        return BiPoly(coeffs)


# -- oracle routes -------------------------------------------------------


def permanent_oracle(rows: list[list]) -> Element:
    """The permanent by its definition, a maximum over all permutations,
    on the `scaled` integers.  Only for small matrices.

    The value is ghost when two or more permutations reach the maximum,
    or when the one that does uses a ghost entry; ZERO when every
    permutation meets a Zero entry.
    """
    size = len(rows)
    if any(len(r) != size for r in rows):
        raise ValueError("permanent requires a square matrix")
    if size > 8:
        raise ValueError("oracle permanent limited to size 8")
    den, views = scaled([{j: e for j, e in enumerate(row) if not e.is_zero}
                         for row in rows])
    grid = [[view.get(j) for j in range(size)] for view in views]
    best = reached = None
    for perm in itertools.permutations(range(size)):
        total, uses_ghost = 0, False
        for row, j in zip(grid, perm):
            entry = row[j]
            if entry is None:
                break
            total += entry[0]
            uses_ghost = uses_ghost or entry[1]
        else:
            if best is None or total > best:
                best, reached = total, [uses_ghost]
            elif total == best:
                reached.append(uses_ghost)
    if best is None:
        return ZERO
    return Element(Fraction(best, den), len(reached) > 1 or reached[0])


def permanent(rows: list[list], zero=ZERO, one=ONE):
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


def resultant_recursive(f: Poly, g: Poly) -> Element:
    """Resultant by peeling constant terms.

    Requires both inputs full with nonzero constant term.  Writing f^(k)
    for the polynomial whose coefficients are those of f from slot k up,
    the value satisfies

        res(f, g) = alpha_0 * res(f, g^(1)) + beta_0 * res(f^(1), g)

    with res(f, b) = b^deg(f) and res(a, g) = a^deg(g) against constants.
    Every pair reached is (f^(i), g^(j)), so the table is filled bottom up
    over the offsets, keeping one row: O(mn) products in O(n) memory, and
    no recursion, so any degree works.
    """
    for p in (f, g):
        if p.is_zero or not p.is_full() or p.ldeg != 0:
            raise ValueError("recursive resultant needs full polynomials "
                             "with nonzero constant term")
    fv, gv = f.coeff_vector(), g.coeff_vector()
    m, n = len(fv) - 1, len(gv) - 1
    # row[j] = res(f^(i), g^(j)), from i = m down; f^(m) and g^(n) are
    # constants.
    row = [fv[m] ** (n - j) for j in range(n + 1)]
    for i in range(m - 1, -1, -1):
        row[n] = gv[n] ** (m - i)
        for j in range(n - 1, -1, -1):
            row[j] = fv[i] * row[j + 1] + gv[j] * row[j]
    return row[0]


def resultant_tangible_product(f: Poly, g: Poly) -> Element:
    """The corner-root product rule, for full tangible polynomials.

    lead_f^n * lead_g^m * prod over corner-root pairs (a, b) of (a + b),
    for degrees m and n, taken on Element magnitudes: a pair adds
    max(a, b), and a tie a = b makes the value ghost.
    """
    for p in (f, g):
        if p.is_zero or not p.is_full() or p.ldeg != 0 or not p.all_tangible():
            raise ValueError("product rule needs full tangible polynomials "
                             "with nonzero constant term")
    fv, gv = f.coeff_vector(), g.coeff_vector()
    m, n = len(fv) - 1, len(gv) - 1
    ca, cb = _corners(fv), _corners(gv)
    return fv[m] ** n * gv[n] ** m * Element(
        sum([max(a, b) for a in ca for b in cb], Fraction(0)),
        not set(ca).isdisjoint(cb))


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


# -- acceptance criteria -------------------------------------------------


def check_example_table() -> int:
    """Quartic pair value table, all 20 entries, and the ghost form of f+g."""
    f = parse_poly("(x+2)*(x+5v)*(x+8v)*(x+9)")
    g = parse_poly("(x+3)*(x+4)*(0v*x+7)*(x+10)")
    expected_f = ["24v", "25v", "26v", "27v", "29v", "31v", "33v", "36v",
                  "40", "44"]
    expected_g = ["24", "24v", "25v", "27", "29", "31v", "34v", "37v",
                  "40v", "44v"]
    for k, a in enumerate(range(2, 12)):
        va = f.evaluate(tangible(a))
        vb = g.evaluate(tangible(a))
        if va != Element.parse(expected_f[k]):
            raise AssertionError((a, va, expected_f[k]))
        if vb != Element.parse(expected_g[k]):
            raise AssertionError((a, vb, expected_g[k]))
    stated = parse_poly("x^4 + 10*x^3 + 17*x^2 + 22*x + 24")
    if f + g != stated.nu():
        raise AssertionError((f + g, stated.nu()))
    if not is_ghost_poly(f + g):
        raise AssertionError
    return 22


def check_eq43() -> int:
    """Resultant of a tangible quadratic against a tangible linear."""
    gen, cases = Gen(43001), 100
    done = 0
    while done < cases:
        a, b = gen.corners(2, distinct=True)
        roll = gen.rng.random()
        if roll < 0.2:
            c = a
        elif roll < 0.4:
            c = b
        elif roll < 0.5:
            c = Fraction(a + b, 2)  # forces the 2c = a+b tie
        else:
            c = gen.fraction()
        f = Poly.linear(a) * Poly.linear(b)
        g = Poly.linear(c)
        values = [2 * c, b + c, a + b]
        top = max(values)
        expected = Element(top, values.count(top) >= 2)
        got = resultant(f, g)
        if got != expected:
            raise AssertionError((a, b, c, got, expected))
        done += 1
    return done


def check_root_resultant_equivalence() -> int:
    """Ghost resultant if and only if the root intervals meet."""
    gen, cases = Gen(42002), 1000
    for _ in range(cases):
        # Monomials canonicalize to constants: two of them give One, ghost
        # exactly when both are ghost and so share every root.
        f = gen.canonical_poly(5)
        g = gen.canonical_poly(5)
        r = resultant(f, g)
        meet = not tangible_roots(f).intervals.intersect(
            tangible_roots(g).intervals).is_empty
        if r.in_ghost_ideal != meet:
            raise AssertionError((f, g, r, meet))
    return cases


def check_root_division_equivalence() -> int:
    """x + a divides a non-monomial f up to ghosts exactly at the tangible
    roots a, tried with the greatest quotient and no root test in front."""
    gen, done = Gen(42012), 0
    for _ in range(300):
        f = gen.poly(6)
        roots = tangible_roots(f)
        probes = {a for piece in roots.intervals for a in piece
                  if isinstance(a, Fraction)}
        for a in probes | {gen.fraction(), gen.fraction()}:
            g = Poly.linear(a)
            q = _residual(f, g)
            if (q is not None and verify_division(f, g, q)) != (
                    a in roots and not f.is_monomial):
                raise AssertionError((f, a, q))
            done += 1
    return done


def check_product_formula() -> int:
    """Tangible pairs: permanent equals all three closed forms.

    With leads alpha and beta, the resultant is alpha^n beta^m prod(a_i+b_j);
    the evaluation products carry alpha^n and beta^m already, so each needs
    only the other lead as prefactor.
    """
    gen, cases = Gen(42003), 500
    for _ in range(cases):
        f, roots_f = gen.tangible_split(5)
        g, roots_g = gen.tangible_split(5)
        alpha = ONE if gen.rng.random() < 0.5 else tangible(gen.fraction())
        beta = ONE if gen.rng.random() < 0.5 else tangible(gen.fraction())
        f = f.scale(alpha)
        g = g.scale(beta)
        m, n = len(roots_f), len(roots_g)
        expected = alpha ** n * beta ** m
        for a in roots_f:
            for b in roots_g:
                expected = expected * (tangible(a) + tangible(b))
        by_perm = resultant(f, g)
        by_rule = resultant_tangible_product(f, g)
        at_g = beta ** m
        for b in roots_g:
            at_g = at_g * f.evaluate(tangible(b))
        at_f = alpha ** n
        for a in roots_f:
            at_f = at_f * g.evaluate(tangible(a))
        if by_perm != expected:
            raise AssertionError((f, g, by_perm, expected))
        if by_rule != expected:
            raise AssertionError((f, g, by_rule, expected))
        if at_g != expected:
            raise AssertionError((f, g, at_g, expected))
        if at_f != expected:
            raise AssertionError((f, g, at_f, expected))
    return cases


def check_nu_multiplicativity() -> int:
    """nu of res(f, gh) splits into the nu product of the factor resultants."""
    gen, cases = Gen(42004), 300
    for _ in range(cases):
        f = gen.canonical_poly(3)
        g = gen.canonical_poly(3)
        h = gen.canonical_poly(3)
        lhs = resultant(f, g * h).nu()
        rhs = (resultant(f, g) * resultant(f, h)).nu()
        if lhs != rhs:
            raise AssertionError((f, g, h, lhs, rhs))
    return cases


def check_cross_algorithms() -> int:
    """Every resultant route agrees with the permanent on its own domain."""
    gen, cases = Gen(42005), 200
    total = 0
    for side in range(2, 7):
        for _ in range(cases):
            rows = [[ZERO if gen.rng.random() < 0.25 else gen.element()
                     for _ in range(side)] for _ in range(side)]
            want = permanent_oracle(rows)
            if permanent(rows) != want:
                raise AssertionError(rows)
            total += 1
    for _ in range(cases):
        f = gen.full_poly(3)
        g = gen.full_poly(3)
        direct = permanent(sylvester(f, g))
        if direct != resultant(f, g):
            raise AssertionError((f, g))
        if resultant_recursive(f, g) != direct:
            raise AssertionError((f, g))
        nu_value = resultant_nu(f, g)
        if nu_value != direct.nu():
            raise AssertionError((f, g, nu_value, direct))
        total += 1
    for _ in range(cases):
        f = gen.full_poly(4)
        r1, r2 = gen.corners(2)
        flags = [gen.rng.random() < 0.5, gen.rng.random() < 0.5, False]
        g = canonical_full(full_from_corners([r1, r2], flags)).to_poly()
        if resultant_quadratic(f, g) != resultant(f, g):
            raise AssertionError((f, g))
        total += 1
    return total


def check_factorization() -> int:
    """Monic full polynomials round-trip and cover their root components."""
    gen, cases = Gen(42006), 500
    for _ in range(cases):
        f = gen.monic_full(8)
        fact = factor_min_ghosts(f)
        if not e_equiv(expand(fact), f):
            raise AssertionError((f, fact))
        covered = IntervalSet.of(
            (lo, hi) for lo, hi, _ in fact.factor_intervals())
        if covered != tangible_roots(f).intervals:
            raise AssertionError((f, fact))
    return cases


def _relayer(gen: Gen, p: Poly) -> Poly:
    return Poly({i: Element(c.mag, gen.rng.random() < 0.5)
                 for i, c in p.items()})


def _ghost_sum_pair(gen: Gen) -> tuple[Poly, Poly, object]:
    """A pair with ghost sum, plus the expected classification."""
    if gen.rng.random() < 0.5:
        # Twin pair: same magnitudes everywhere, layers rerolled.
        while True:
            f = gen.poly(5, 1)
            if f.degree > f.ldeg:
                break
        g = _relayer(gen, f)
        witness = None  # any corner root is shared; checked structurally
        return f, g, CommonRoot(witness)
    # Opposite half-tangible shapes: a shared middle piece of slope one,
    # stretched by a power substitution and a multiplicative shift.
    c = gen.fraction()
    alpha, beta = gen.corners(2, distinct=True)
    f = Poly({2: ghost(c), 1: tangible(c + beta)})
    g = Poly({1: tangible(c + beta), 0: ghost(c + beta + alpha)})
    m = gen.rng.randint(1, 3)
    shift = gen.fraction()
    f = mul_shift(frobenius(f, m), shift)
    g = mul_shift(frobenius(g, m), shift)
    return f, g, HalfTangible(alpha / m - shift, beta / m - shift)


def check_ghost_sums() -> int:
    """Trichotomy of ghost sums, degree inequalities, layer perturbation."""
    gen, cases = Gen(42007), 300
    for _ in range(cases):
        f, g, want = _ghost_sum_pair(gen)
        if not is_ghost_poly(f + g):
            raise AssertionError((f, g))
        got = analyze_ghost_sum(f, g)
        if isinstance(want, CommonRoot):
            if not isinstance(got, CommonRoot):
                raise AssertionError((f, g, got))
            if got.witness not in tangible_roots(f):
                raise AssertionError((f, g, got))
            if got.witness not in tangible_roots(g):
                raise AssertionError((f, g, got))
        else:
            if got != want:
                raise AssertionError((f, g, got, want))
            left = f if classify_half_tangible(f)[0].value == "left" else g
            other = g if left is f else f
            if left.degree <= other.degree:
                raise AssertionError((f, g))
            if left.ldeg <= other.ldeg:
                raise AssertionError((f, g))
        p = gen.poly(3, 0)
        q = _relayer(gen, p)
        if not is_ghost_poly(p * f + q * g):
            raise AssertionError((f, g, p, q))
    # The third leg of the trichotomy: a sum that stays tangible somewhere.
    if not isinstance(analyze_ghost_sum(parse_poly("x+1"), parse_poly("x+5")),
                      NotGhostSum):
        raise AssertionError
    return cases


def check_division_examples() -> int:
    """Both worked division examples, and the divisor interval for a = 0..7."""
    f = parse_poly("x^2 + 6v*x + 7")
    if not verify_division(f, parse_poly("x+4"), parse_poly("x+3")):
        raise AssertionError
    if not verify_division(f * f, parse_poly("x^2 + 4v*x + 6"),
                           parse_poly("x^2 + 8")):
        raise AssertionError
    expected = {0: False, 1: True, 4: True, 6: True, 7: False}
    for a, want in expected.items():
        w = divides_linear(f, a)
        if (w is not None) != want:
            raise AssertionError((a, w))
        if w is not None:
            if not verify_division(f, Poly.linear(Fraction(a)), w.q):
                raise AssertionError
            if w.ghost_sum != f + w.q * Poly.linear(Fraction(a)):
                raise AssertionError
    return 2 + len(expected)


def check_bezout_bound() -> int:
    """Isolated common-root count never exceeds the degree product."""
    gen, cases = Gen(42010), 100
    for _ in range(cases):
        fb = gen.bipoly(3)
        gb = gen.bipoly(3)
        rep = bezout_report(fb, gb)
        if not rep.bound_holds:
            raise AssertionError((fb, gb, rep.ordinary_count, rep.bound))
        if rep.ordinary_count > rep.m * rep.n:
            raise AssertionError
    return cases


def check_specialization() -> int:
    """Eliminating y commutes with substituting a tangible x."""
    gen, cases = Gen(42011), 200
    for _ in range(cases):
        fb = gen.bipoly(3, need_y=True)
        gb = gen.bipoly(3, need_y=True)
        r = resultant_in_second(fb, gb)
        c = gen.fraction()
        lhs = r.evaluate(tangible(c))
        rhs = resultant(fb.specialize_x(tangible(c)),
                        gb.specialize_x(tangible(c)), canonical=False)
        if lhs != rhs:
            raise AssertionError((fb, gb, c, lhs, rhs))
    return cases


CHECKS: list[tuple[str, object]] = [
    ("example table", check_example_table),
    ("resultant case analysis", check_eq43),
    ("root/resultant equivalence", check_root_resultant_equivalence),
    ("root/division equivalence", check_root_division_equivalence),
    ("tangible product formula", check_product_formula),
    ("nu multiplicativity", check_nu_multiplicativity),
    ("cross-algorithm agreement", check_cross_algorithms),
    ("factorization round trip", check_factorization),
    ("ghost sum trichotomy", check_ghost_sums),
    ("division examples", check_division_examples),
    ("bezout bound", check_bezout_bound),
    ("bivariate specialization", check_specialization),
]


# -- worked example corpus -------------------------------------------------


def load_corpus() -> list[dict]:
    text = resources.files(__package__).joinpath("corpus.json").read_text()
    return json.loads(text)


def _p(e: dict, key: str) -> Poly:
    return parse_poly(e[key])


def _el(e: dict, key: str) -> Element:
    return Element.parse(e[key])


# Rows that observe several fields return tuples.  Where an entry leaves
# out an optional field, the observed value stands in for it, so the field
# is checked exactly when the entry carries it.


def _ggraph(e: dict) -> tuple:
    pl = ggraph(_p(e, "poly"))
    got = ([str(b) for b in pl.breakpoints], list(pl.slopes),
           list(pl.piece_ghost))
    return got, (e["breakpoints"], e["slopes"], e.get("piece_ghost", got[2]))


def _roots(e: dict) -> tuple:
    r = tangible_roots(_p(e, "poly"))
    return ((str(r.intervals), r.at_bottom),
            (e["expect"], e.get("at_bottom", r.at_bottom)))


def _classify(e: dict) -> tuple:
    got = classify_half_tangible(_p(e, "poly"))
    side = None if got is None else [got[0].value, str(got[1])]
    return side, e["expect"]


def _ghost_sum(e: dict) -> tuple:
    w = e["expect"]
    if w["kind"] == "common_root":
        want = CommonRoot(Fraction(w["witness"]))
    elif w["kind"] == "half_tangible":
        want = HalfTangible(Fraction(w["alpha"]), Fraction(w["beta"]))
    else:
        want = NotGhostSum()
    return analyze_ghost_sum(_p(e, "f"), _p(e, "g")), want


def _factor(e: dict) -> tuple:
    f = _p(e, "poly")
    fact = factor_min_ghosts(f)
    return (str(fact), e_equiv(expand(fact), f)), (e["expect"], True)


# The routes a resultant entry can name in its "method" field; an entry
# without one takes `resultant`, and an unknown name fails the entry.
_ROUTES = {"recursive": resultant_recursive,
           "product": resultant_tangible_product,
           "quadratic": resultant_quadratic, "nu": resultant_nu}


def _resultant(e: dict) -> tuple:
    route = _ROUTES[e["method"]] if "method" in e else resultant
    return route(_p(e, "f"), _p(e, "g")), _el(e, "expect")


def _permanent(e: dict) -> tuple:
    rows = [[Element.parse(c) for c in row] for row in e["matrix"]]
    want = _el(e, "expect")
    return (permanent(rows), permanent_oracle(rows)), (want, want)


def _relprime(e: dict) -> tuple:
    rep = decide(_p(e, "f"), _p(e, "g"))
    got = (rep.relatively_prime, rep.witness, rep.resultant)
    return got, (e["expect_prime"],
                 Fraction(e["witness"]) if "witness" in e else rep.witness,
                 _el(e, "resultant") if "resultant" in e else rep.resultant)


def _divides_linear(e: dict) -> tuple:
    w = divides_linear(_p(e, "f"), Fraction(e["a"]))
    q = None if w is None else w.q
    return (w is not None, q), (e["expect"], _p(e, "q") if "q" in e else q)


def _specialize(e: dict) -> tuple:
    f, at = parse_bipoly(e["poly"]), _el(e, "at")
    got = f.specialize_y(at) if e["var"] == "y" else f.specialize_x(at)
    return got, _p(e, "expect")


def _bezout(e: dict) -> tuple:
    rep = bezout_report(parse_bipoly(e["f"]), parse_bipoly(e["g"]))
    got = (rep.bound_holds, rep.component_count, rep.ordinary_count,
           len(rep.hits))
    return got, (True, e.get("component_count", got[1]),
                 e.get("ordinary_count", got[2]), e.get("hit_count", got[3]))


# Entry kind -> function of the entry returning (got, want).
_ENTRIES = {
    "element": lambda e: (parse_element(e["expr"]), _el(e, "expect")),
    "add": lambda e: (_p(e, "a") + _p(e, "b"), _p(e, "expect")),
    "mul": lambda e: (_p(e, "a") * _p(e, "b"), _p(e, "expect")),
    "eval": lambda e: (_p(e, "poly").evaluate(_el(e, "at")),
                       _el(e, "expect")),
    "canon": lambda e: (canonical_full(_p(e, "poly")).to_poly(),
                        _p(e, "expect")),
    "essential": lambda e: (essential_part(_p(e, "poly")), _p(e, "expect")),
    "ggraph": _ggraph,
    "e_equiv": lambda e: (e_equiv(_p(e, "a"), _p(e, "b")), e["expect"]),
    "roots": _roots,
    "classify": _classify,
    "ghost_sum": _ghost_sum,
    "factor": _factor,
    "split": lambda e: (split_tan_intan(_p(e, "poly")),
                        (_p(e, "tan"), _p(e, "intan"))),
    "e_divides": lambda e: (e_divides(_p(e, "g"), _p(e, "f")), e["expect"]),
    "mul_shift": lambda e: (mul_shift(_p(e, "poly"), Fraction(e["b"])),
                            _p(e, "expect")),
    "add_shift": lambda e: (add_shift(_p(e, "poly"), _el(e, "beta")),
                            _p(e, "expect")),
    "sylvester": lambda e: ([[str(c) for c in row]
                             for row in sylvester(_p(e, "f"), _p(e, "g"))],
                            e["expect"]),
    "resultant": _resultant,
    "permanent": _permanent,
    "relprime": _relprime,
    "verify_division": lambda e: (verify_division(
        _p(e, "f"), _p(e, "g"), _p(e, "q")), e["expect"]),
    "divides_linear": _divides_linear,
    "radical": lambda e: (radical_member_check(
        _p(e, "a"), e["k"], _p(e, "b"), _p(e, "q")), e["expect"]),
    "frobenius": lambda e: (frobenius(_p(e, "poly"), e["m"]),
                            _p(e, "expect")),
    "eval2": lambda e: (parse_bipoly(e["poly"]).evaluate(
        _el(e, "x"), _el(e, "y")), _el(e, "expect")),
    "specialize": _specialize,
    "res2": lambda e: (resultant_in_second(parse_bipoly(e["f"]),
                                           parse_bipoly(e["g"])),
                       _p(e, "expect")),
    "bezout": _bezout,
    "parse_print": lambda e: (str(_p(e, "text")), e["expect"]),
}


def _run_entry(row, entry: dict) -> str:
    """The one verdict: AssertionError((got, entry)) unless got == want."""
    got, want = row(entry)
    if got != want:
        raise AssertionError((got, entry))
    return ""


def outcome(name: str, fn) -> tuple[str, bool, str]:
    """(name, ok, detail): `fn()` is the detail of a pass, and anything it
    raises fails this name alone."""
    try:
        return name, True, fn()
    except Exception as exc:
        return name, False, f"{type(exc).__name__}: {exc}"


def run_corpus() -> list[tuple[str, bool, str]]:
    # An unknown kind is a fault of the corpus, not of an entry: it raises.
    results = []
    for entry in load_corpus():
        kind = entry.get("kind")
        row = _ENTRIES.get(kind)
        if row is None:
            raise ValueError(f"unknown corpus entry kind {kind!r}")
        results.append(outcome(entry.get("name", kind),
                               lambda: _run_entry(row, entry)))
    return results
