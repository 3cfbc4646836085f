"""The integer sparse core against the Element-by-Element loops it replaced."""

import copy
import pickle
import re
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from supertrop import (BiPoly, Element, ONE, Poly, Side, ZERO, canonical_full,
                       classify_half_tangible, frobenius, ghost, parse_bipoly,
                       parse_poly, partial_frobenius, radical_member_check,
                       tangible)
from supertrop.sparse import scaled, terms_add, terms_mul, terms_pow


# -- oracles: the products before the integer core ----------------------------


def oracle_terms_mul(p, q):
    """The two-argument core product on pair keys, one Element at a time."""
    for mono, other in ((q, p), (p, q)):
        if len(mono) == 1:
            ((k, l), d), = mono.items()
            if d is ONE:  # a bare monomial: shift exponents
                return {(i + k, j + l): c for (i, j), c in other.items()}
    out = {}
    for (i, j), c in p.items():
        for (k, l), d in q.items():
            key = (i + k, j + l)
            term = c * d
            cur = out.get(key)
            out[key] = term if cur is None else cur + term
    return out


def oracle_poly_mul(f, g):
    """`Poly.__mul__` before the core: the convolution on Elements."""
    out = {}
    for d1, c1 in f.items():
        for d2, c2 in g.items():
            deg = d1 + d2
            prod = c1 * c2
            cur = out.get(deg)
            out[deg] = prod if cur is None else cur + prod
    return Poly(out)


def oracle_poly_pow(f, n):
    """`Poly.__pow__` before the core: n repeated products."""
    result = Poly.constant(ONE)
    for _ in range(n):
        result = oracle_poly_mul(result, f)
    return result


def oracle_squaring(p, n, mul):
    """The square-and-multiply chain of `mul`, which fixes a power's key order."""
    out = None
    while True:
        if n & 1:
            out = p if out is None else mul(out, p)
        n >>= 1
        if not n:
            return out
        p = mul(p, p)


# -- strategies -----------------------------------------------------------------

# Few magnitudes, so products tie and turn ghost often; ONE itself takes the
# bare-monomial shortcut.
tied = st.one_of(st.just(ONE),
                 st.builds(Element, st.integers(-2, 2).map(Fraction), st.booleans()))

# Coprime denominators near 10^6 and numerators up to 10^300.
PRIMES = [999953, 999959, 999961, 999979, 999983, 1000003, 1000033, 1000037]
huge = st.builds(lambda n, d, g: Element(Fraction(n, d), g),
                 st.integers(-10 ** 300, 10 ** 300), st.sampled_from(PRIMES),
                 st.booleans())
coeffs = st.one_of(tied, tied, huge)

polys = st.dictionaries(st.integers(0, 6), coeffs, max_size=5).map(Poly)
pair_maps = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                            coeffs, max_size=4)
bare = st.tuples(st.integers(0, 3), st.integers(0, 3)).map(lambda k: {k: ONE})
factor_maps = st.one_of(pair_maps, pair_maps, bare)


def same(a, b):
    """Equal coefficient maps that also list their keys in the same order."""
    return a == b and list(a) == list(b)


# -- products and powers against the oracles ------------------------------------


@settings(max_examples=300, deadline=None)
@given(polys, polys)
def test_poly_product_matches_oracle(f, g):
    assert same((f * g)._coeffs, oracle_poly_mul(f, g)._coeffs)


@settings(max_examples=300, deadline=None)
@given(factor_maps, factor_maps)
def test_pair_product_matches_oracle(p, q):
    assert same(terms_mul(p, q), oracle_terms_mul(p, q))


@settings(max_examples=200, deadline=None)
@given(st.lists(factor_maps, min_size=1, max_size=5))
def test_n_ary_product_is_the_left_fold(maps):
    assert same(terms_mul(*maps), reduce(oracle_terms_mul, maps))


@settings(max_examples=200, deadline=None)
@given(st.lists(polys, min_size=1, max_size=4))
def test_poly_product_of_many_is_the_left_fold(factors):
    assert same(Poly.product(factors)._coeffs,
                reduce(oracle_poly_mul, factors)._coeffs)


@settings(max_examples=200, deadline=None)
@given(polys, st.integers(0, 8))
def test_poly_power_matches_repeated_product(f, n):
    power = f ** n
    assert power == oracle_poly_pow(f, n)
    if n:
        assert same(power._coeffs, oracle_squaring(f, n, oracle_poly_mul)._coeffs)


@settings(max_examples=200, deadline=None)
@given(pair_maps, st.integers(1, 8))
def test_pair_power_keeps_the_squaring_order(p, n):
    assert same(terms_pow(p, n, (0, 0)), oracle_squaring(p, n, oracle_terms_mul))


def test_edge_cases():
    x, c = {1: ONE}, {0: ghost(3)}
    assert terms_mul({}, x) == terms_mul(c, {}) == {}
    assert terms_mul(x, x, x) == {3: ONE}
    assert terms_mul(x) == x and terms_mul(c) == c
    assert terms_pow({}, 0, 0) == {0: ONE} and terms_pow({}, 3, (0, 0)) == {}
    assert terms_add({}, c, c) == {0: ghost(3)}
    # A monomial's power is read off, whatever the exponent.
    big = Poly.monomial(3, ghost(2)) ** 10 ** 12
    assert list(big.items()) == [(3 * 10 ** 12, ghost(2 * 10 ** 12))]
    # A pair product packs exponents past the product's degree in y.
    p = {(0, 3): ghost(1), (2, 0): ONE}
    assert same(terms_mul(p, p, p), reduce(oracle_terms_mul, [p, p, p]))


# -- the one integer view ------------------------------------------------------

int_maps = st.dictionaries(st.integers(0, 6), coeffs, max_size=5)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(int_maps, max_size=4), st.lists(pair_maps, max_size=4)))
def test_scaled_view_is_exact(maps):
    den, views = scaled(maps)
    assert len(views) == len(maps)
    dens = [c.mag.denominator for p in maps for c in p.values()]
    # den is a common multiple, and the least one: the cofactors den // d
    # share no factor exactly when no smaller multiple exists.
    assert all(den % d == 0 for d in dens)
    assert gcd(*[den // d for d in dens]) == 1 if dens else den == 1
    for p, view in zip(maps, views):
        assert list(view) == list(p)
        for key, (m, g) in view.items():
            assert type(m) is int and Fraction(m, den) == p[key].mag
            assert g is p[key].is_ghost


def test_scaled_edge_cases():
    assert scaled([]) == (1, [])
    assert scaled([{}, {}]) == (1, [{}, {}])
    p = {2: Element(Fraction(-1, 3), True), 0: ONE}
    q = {(1, 0): Element(Fraction(2, 5))}
    assert scaled([p, q]) == (15, [{2: (-5, True), 0: (0, False)},
                                   {(1, 0): (6, False)}])


# -- the polynomial semiring laws -----------------------------------------------

small_polys = st.dictionaries(st.integers(0, 4), tied, max_size=4).map(Poly)


@settings(max_examples=200, deadline=None)
@given(small_polys, small_polys, small_polys)
def test_poly_semiring_laws(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h) == Poly.product([f, g, h])
    assert f * (g + h) == f * g + f * h
    assert f + g == g + f and (f + g) + h == f + (g + h)


@settings(max_examples=100, deadline=None)
@given(pair_maps.map(BiPoly), pair_maps.map(BiPoly), pair_maps.map(BiPoly))
def test_bipoly_semiring_laws(f, g, h):
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


# -- the shared value protocol -------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(polys, polys, pair_maps.map(BiPoly), pair_maps.map(BiPoly))
def test_equal_values_hash_equal_and_print_back(f, g, b, c):
    for p, q, parse in ((f, g, parse_poly), (b, c, parse_bipoly)):
        # The same map listed in the other order is the same value.
        twin = type(p)(dict(reversed(list(p.items()))))
        assert twin == p and hash(twin) == hash(p)
        if p == q:
            assert hash(p) == hash(q)
        assert parse(str(p)) == p
        assert repr(p) == f"{type(p).__name__}({p})"
    # A Poly never equals a BiPoly, not even the same polynomial in x.
    for poly, bipoly in ((f, b), (f, BiPoly.from_poly(f))):
        assert poly != bipoly and bipoly != poly
        assert not poly == bipoly and not bipoly == poly


def test_constructors_refuse_bad_exponents():
    for make, key in ((BiPoly, 5), (BiPoly, (1, 2, 3)), (BiPoly, (1, -1)),
                      (BiPoly, (True, 0)), (Poly, True), (Poly, -1),
                      (Poly, (1, 0)), (Poly, 1.0)):
        with pytest.raises(ValueError, match="bad exponent"):
            make({key: ONE})
    assert Poly({2: ghost(1), 0: ZERO}) == Poly.monomial(2, ghost(1))
    # Powers of one variable are positive ints, as in `frobenius`.
    for power in (0, 0.0, 2.0, Fraction(2), "2", True):
        with pytest.raises(ValueError, match="positive integer"):
            partial_frobenius(BiPoly.monomial(1, 1), power)
    # A bool is not an exponent, as it is not a key or a magnitude.
    f = parse_poly("x + 1")
    for power in (lambda: frobenius(f, True), lambda: f ** True,
                  lambda: BiPoly.monomial(1, 1) ** True,
                  lambda: tangible(2) ** True):
        with pytest.raises(ValueError, match="integer: True"):
            power()
    # The radical certificate asks for a positive int as well.
    a, b, q = parse_poly("x + 4"), parse_poly("(x+4)^2"), parse_poly("0")
    for k in (0, True, "2", 2.0, Fraction(2)):
        with pytest.raises(ValueError, match="positive integer"):
            radical_member_check(a, k, b, q)
    assert radical_member_check(a, 2, b, q)
    assert BiPoly({(1, 2): ONE, (0, 0): ZERO}) == BiPoly.monomial(1, 2)


def test_constructors_refuse_coefficients_that_are_not_elements():
    # The error names the term, at construction.
    for make, terms, key in ((Poly, {0: 3}, 0), (Poly, {1: ONE, 4: "1v"}, 4),
                             (Poly, {1: None}, 1),
                             (BiPoly, {(1, 2): Fraction(1, 2)}, (1, 2)),
                             (BiPoly, {(0, 0): ONE, (1, 0): 0.5}, (1, 0))):
        with pytest.raises(TypeError, match=re.escape(
                f"coefficient of {key!r} is not an Element")):
            make(terms)
    # Int magnitudes are stored as Fractions, so a reader that tests for a
    # Fraction (a finite root-set end) sees one: x + 1v is right-tangible.
    f = Poly({1: Element(0), 0: Element(1, True)})
    assert classify_half_tangible(f) == (Side.RIGHT, Fraction(1))
    assert f * f == parse_poly("x^2 + 1v*x + 2v")


# -- immutability, copies and pickles --------------------------------------------


def test_wrappers_cannot_be_assigned_or_deleted():
    f, b = parse_poly("x^2 + 3v*x + 1"), parse_bipoly("x*y + 2v")
    full = canonical_full(f)
    e = ghost(3)
    polys = ("_coeffs", "_full", "is_zero", "extra")
    elements = ("mag", "is_ghost", "is_zero", "extra")
    for value, names in ((f, polys), (b, polys), (e, elements),
                         (ZERO, elements), (ONE, elements)):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)
    assert f == parse_poly("x^2 + 3v*x + 1") and canonical_full(f) is full
    assert b == parse_bipoly("x*y + 2v")
    # ZERO and ONE are shared by the whole process.
    assert [(v.mag, v.is_ghost) for v in (e, ZERO, ONE)] == [
        (3, True), (None, False), (0, False)]


def round_trips(value):
    return [copy.copy(value), copy.deepcopy(value),
            pickle.loads(pickle.dumps(value))]


def test_elements_and_zero_polynomials_round_trip():
    for e in (ZERO, ONE, ghost(3), Element(Fraction(-5, 2)), ghost("1/3")):
        assert all(type(got) is Element and got == e for got in round_trips(e))
    for zero in (Poly.zero(), BiPoly.zero()):
        assert all(got == zero and got.is_zero for got in round_trips(zero))


@settings(max_examples=100, deadline=None)
@given(polys, st.booleans(), pair_maps.map(BiPoly))
def test_polynomials_round_trip(f, fill, b):
    # A filled canonical-form slot does not change what a copy holds.
    full = canonical_full(f) if fill and not f.is_zero else None
    for got in round_trips(f):
        assert type(got) is Poly and same(got._coeffs, f._coeffs)
        if full is not None:
            assert canonical_full(got) == full
    for got in round_trips(b):
        assert type(got) is BiPoly and same(got._coeffs, b._coeffs)
