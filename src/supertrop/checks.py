"""Randomized property checks shared by the test suite and `selfcheck`.

Each check function draws its own seeded generator, so running one from
pytest and from the command line exercises identical cases.  A failure
raises AssertionError with the offending inputs in the message; success
returns the number of cases checked.  `CHECKS` lists them all in the
order they are reported.

`run_corpus` replays the worked examples stored in corpus.json through
the public API and returns a list of per-entry results.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources
from random import Random

from .bipoly import BiPoly, bezout_report, resultant_in_second
from .divide import divides_linear, radical_member_check, verify_division
from .element import Element, ONE, ZERO, ghost, tangible
from .factor import (e_divides, expand, factor_min_ghosts, linear_factor,
                     split_tan_intan)
from .intervals import IntervalSet
from .parse import parse_bipoly, parse_poly
from .poly import (CommonRoot, HalfTangible, NotGhostSum, Poly, add_shift,
                   analyze_ghost_sum, canonical_full, classify_half_tangible,
                   e_equiv, essential_part, frobenius, full_from_corners,
                   ggraph, is_ghost_poly, mul_shift, tangible_roots)
from .resultant import (DEFAULT_METHOD, METHODS, decide, permanent,
                        permanent_oracle, resultant, resultant_nu,
                        resultant_quadratic, resultant_recursive,
                        resultant_tangible_product, sylvester)


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
            f = f * linear_factor(a)
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


def check_eq43(seed: int = 43001, cases: int = 100) -> int:
    """Resultant of a tangible quadratic against a tangible linear."""
    gen = Gen(seed)
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
        f = linear_factor(a) * linear_factor(b)
        g = linear_factor(c)
        values = [2 * c, b + c, a + b]
        top = max(values)
        expected = Element(top, values.count(top) >= 2)
        got = resultant(f, g)
        if got != expected:
            raise AssertionError((a, b, c, got, expected))
        done += 1
    return done


def check_root_resultant_equivalence(seed: int = 42002,
                                     cases: int = 1000) -> int:
    """Ghost resultant if and only if the root intervals meet."""
    gen = Gen(seed)

    def draw() -> Poly:
        # Monomials canonicalize to constants, which sit outside the
        # equivalence (the constant resultant convention is tangible).
        while True:
            f = gen.canonical_poly(5)
            if f.degree > f.ldeg:
                return f

    for _ in range(cases):
        f = draw()
        g = draw()
        r = resultant(f, g)
        meet = not tangible_roots(f).intervals.intersect(
            tangible_roots(g).intervals).is_empty
        if r.in_ghost_ideal != meet:
            raise AssertionError((f, g, r, meet))
    return cases


def check_product_formula(seed: int = 42003, cases: int = 500) -> int:
    """Tangible pairs: permanent equals all three closed forms.

    With leads alpha and beta, the resultant is alpha^n beta^m prod(a_i+b_j);
    the evaluation products carry alpha^n and beta^m already, so each needs
    only the other lead as prefactor.
    """
    gen = Gen(seed)
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


def check_nu_multiplicativity(seed: int = 42004, cases: int = 300) -> int:
    """nu of res(f, gh) splits into the nu product of the factor resultants."""
    gen = Gen(seed)
    for _ in range(cases):
        f = gen.canonical_poly(3)
        g = gen.canonical_poly(3)
        h = gen.canonical_poly(3)
        lhs = resultant(f, g * h).nu()
        rhs = (resultant(f, g) * resultant(f, h)).nu()
        if lhs != rhs:
            raise AssertionError((f, g, h, lhs, rhs))
    return cases


def check_cross_algorithms(seed: int = 42005, cases: int = 200) -> int:
    """Every resultant route agrees with the permanent on its own domain."""
    gen = Gen(seed)
    total = 0
    for side in range(2, 7):
        for _ in range(cases):
            rows = [[ZERO if gen.rng.random() < 0.25 else gen.element()
                     for _ in range(side)] for _ in range(side)]
            if permanent(rows) != permanent_oracle(rows):
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


def check_factorization(seed: int = 42006, cases: int = 500) -> int:
    """Monic full polynomials round-trip and cover their root components."""
    gen = Gen(seed)
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


def check_ghost_sums(seed: int = 42007, cases: int = 300) -> int:
    """Trichotomy of ghost sums, degree inequalities, layer perturbation."""
    gen = Gen(seed)
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
            if not verify_division(f, linear_factor(Fraction(a)), w.q):
                raise AssertionError
            if w.ghost_sum != f + w.q * linear_factor(Fraction(a)):
                raise AssertionError
    return 2 + len(expected)


def check_bezout_bound(seed: int = 42010, cases: int = 100) -> int:
    """Isolated common-root count never exceeds the degree product."""
    gen = Gen(seed)
    for _ in range(cases):
        fb = gen.bipoly(3)
        gb = gen.bipoly(3)
        rep = bezout_report(fb, gb)
        if not rep.bound_holds:
            raise AssertionError((fb, gb, rep.ordinary_count, rep.bound))
        if rep.ordinary_count > rep.m * rep.n:
            raise AssertionError
    return cases


def check_specialization(seed: int = 42011, cases: int = 200) -> int:
    """Eliminating y commutes with substituting a tangible x."""
    gen = Gen(seed)
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


def _run_entry(entry: dict) -> None:
    kind = entry["kind"]
    if kind == "element":
        got = eval_scalar_expr(entry["expr"])
        if got != Element.parse(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "add":
        got = parse_poly(entry["a"]) + parse_poly(entry["b"])
        if got != parse_poly(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "mul":
        got = parse_poly(entry["a"]) * parse_poly(entry["b"])
        if got != parse_poly(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "eval":
        got = parse_poly(entry["poly"]).evaluate(Element.parse(entry["at"]))
        if got != Element.parse(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "canon":
        got = canonical_full(parse_poly(entry["poly"])).to_poly()
        if got != parse_poly(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "essential":
        got = essential_part(parse_poly(entry["poly"]))
        if got != parse_poly(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "ggraph":
        pl = ggraph(parse_poly(entry["poly"]))
        if [str(b) for b in pl.breakpoints] != entry["breakpoints"]:
            raise AssertionError
        if list(pl.slopes) != entry["slopes"]:
            raise AssertionError((pl, entry))
        if "piece_ghost" in entry:
            if list(pl.piece_ghost) != entry["piece_ghost"]:
                raise AssertionError((pl, entry))
    elif kind == "e_equiv":
        got = e_equiv(parse_poly(entry["a"]), parse_poly(entry["b"]))
        if got != entry["expect"]:
            raise AssertionError((got, entry))
    elif kind == "roots":
        got = tangible_roots(parse_poly(entry["poly"]))
        if str(got.intervals) != entry["expect"]:
            raise AssertionError((got, entry))
        if "at_bottom" in entry:
            if got.at_bottom != entry["at_bottom"]:
                raise AssertionError((got, entry))
    elif kind == "classify":
        got = classify_half_tangible(parse_poly(entry["poly"]))
        if entry["expect"] is None:
            if got is not None:
                raise AssertionError((got, entry))
        else:
            side, at = got
            if [side.value, str(at)] != entry["expect"]:
                raise AssertionError((got, entry))
    elif kind == "ghost_sum":
        got = analyze_ghost_sum(parse_poly(entry["f"]), parse_poly(entry["g"]))
        want = entry["expect"]
        if want["kind"] == "common_root":
            if got != CommonRoot(Fraction(want["witness"])):
                raise AssertionError((got, entry))
        elif want["kind"] == "half_tangible":
            if got != HalfTangible(Fraction(want["alpha"]),
                                   Fraction(want["beta"])):
                raise AssertionError((got, entry))
        else:
            if not isinstance(got, NotGhostSum):
                raise AssertionError((got, entry))
    elif kind == "factor":
        fact = factor_min_ghosts(parse_poly(entry["poly"]))
        if str(fact) != entry["expect"]:
            raise AssertionError((str(fact), entry))
        if not e_equiv(expand(fact), parse_poly(entry["poly"])):
            raise AssertionError
    elif kind == "split":
        tan, intan = split_tan_intan(parse_poly(entry["poly"]))
        if tan != parse_poly(entry["tan"]):
            raise AssertionError((tan, entry))
        if intan != parse_poly(entry["intan"]):
            raise AssertionError((intan, entry))
    elif kind == "e_divides":
        got = e_divides(parse_poly(entry["g"]), parse_poly(entry["f"]))
        if got != entry["expect"]:
            raise AssertionError((got, entry))
    elif kind == "mul_shift":
        got = mul_shift(parse_poly(entry["poly"]), Fraction(entry["b"]))
        if got != parse_poly(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "add_shift":
        got = add_shift(parse_poly(entry["poly"]),
                        Element.parse(entry["beta"]))
        if got != parse_poly(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "sylvester":
        rows = sylvester(parse_poly(entry["f"]), parse_poly(entry["g"]))
        got = [[str(e) for e in row] for row in rows]
        if got != entry["expect"]:
            raise AssertionError((got, entry))
    elif kind == "resultant":
        fn = METHODS[entry.get("method", DEFAULT_METHOD)]
        got = fn(parse_poly(entry["f"]), parse_poly(entry["g"]))
        if got != Element.parse(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "permanent":
        rows = [[Element.parse(e) for e in row] for row in entry["matrix"]]
        got = permanent(rows)
        if got != Element.parse(entry["expect"]):
            raise AssertionError((got, entry))
        if permanent_oracle(rows) != got:
            raise AssertionError((got, entry))
    elif kind == "relprime":
        rep = decide(parse_poly(entry["f"]), parse_poly(entry["g"]))
        if rep.relatively_prime != entry["expect_prime"]:
            raise AssertionError((rep, entry))
        if entry.get("witness") is not None:
            if rep.witness != Fraction(entry["witness"]):
                raise AssertionError((rep, entry))
        if entry.get("resultant") is not None:
            if rep.resultant != Element.parse(entry["resultant"]):
                raise AssertionError
    elif kind == "verify_division":
        got = verify_division(parse_poly(entry["f"]), parse_poly(entry["g"]),
                              parse_poly(entry["q"]))
        if got != entry["expect"]:
            raise AssertionError((got, entry))
    elif kind == "divides_linear":
        w = divides_linear(parse_poly(entry["f"]), Fraction(entry["a"]))
        if (w is not None) != entry["expect"]:
            raise AssertionError((w, entry))
        if w is not None and entry.get("q") is not None:
            if w.q != parse_poly(entry["q"]):
                raise AssertionError((w, entry))
    elif kind == "radical":
        got = radical_member_check(parse_poly(entry["a"]), entry["k"],
                                   parse_poly(entry["b"]),
                                   parse_poly(entry["q"]))
        if got != entry["expect"]:
            raise AssertionError((got, entry))
    elif kind == "frobenius":
        got = frobenius(parse_poly(entry["poly"]), entry["m"])
        if got != parse_poly(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "eval2":
        got = parse_bipoly(entry["poly"]).evaluate(
            Element.parse(entry["x"]), Element.parse(entry["y"]))
        if got != Element.parse(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "specialize":
        f = parse_bipoly(entry["poly"])
        at = Element.parse(entry["at"])
        got = f.specialize_y(at) if entry["var"] == "y" else f.specialize_x(at)
        if got != parse_poly(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "res2":
        got = resultant_in_second(parse_bipoly(entry["f"]),
                                  parse_bipoly(entry["g"]))
        if got != parse_poly(entry["expect"]):
            raise AssertionError((got, entry))
    elif kind == "bezout":
        rep = bezout_report(parse_bipoly(entry["f"]), parse_bipoly(entry["g"]))
        if not rep.bound_holds:
            raise AssertionError((rep, entry))
        for field in ("component_count", "ordinary_count"):
            if field in entry:
                if getattr(rep, field) != entry[field]:
                    raise AssertionError((rep, entry))
        if "hit_count" in entry:
            if len(rep.hits) != entry["hit_count"]:
                raise AssertionError((rep, entry))
    elif kind == "parse_print":
        got = str(parse_poly(entry["text"]))
        if got != entry["expect"]:
            raise AssertionError((got, entry))
    else:
        raise ValueError(f"unknown corpus entry kind {kind!r}")


def eval_scalar_expr(expr: str) -> Element:
    """Scalar arithmetic over the grammar, for corpus element entries."""
    p = parse_bipoly(expr)
    if not (p.is_zero or p.total_degree == 0):
        raise AssertionError(expr)
    return p.coeff(0, 0)


def run_corpus() -> list[tuple[str, bool, str]]:
    results = []
    for entry in load_corpus():
        name = entry.get("name", entry["kind"])
        try:
            _run_entry(entry)
            results.append((name, True, ""))
        except AssertionError as exc:
            results.append((name, False, str(exc)))
    return results
