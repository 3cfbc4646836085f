"""Factorization with minimal ghosts, expansion, divisibility."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supertrop import (Factorization, IntervalSet, ONE, Poly, divides_linear,
                       e_divides, e_equiv, expand, factor_min_ghosts,
                       left_ghost_factor, parse_poly, quadratic_factor,
                       right_ghost_factor, split_tan_intan, tangible,
                       tangible_roots, verify_division)
from supertrop.checks import Gen
from supertrop.intervals import NEG_INF, POS_INF
from supertrop.poly import canonical_full, full_from_corners

P = parse_poly


def test_factor_shapes():
    assert Poly.linear(Fraction(3)) == P("x + 3")
    assert quadratic_factor(Fraction(6), Fraction(7)) == P("x^2 + 6v*x + 7")
    assert left_ghost_factor(Fraction(0)) == P("0v*x + 0")
    assert right_ghost_factor(Fraction(3)) == P("x + 3v")


def test_factor_examples():
    fact = factor_min_ghosts(P("0v*x^3 + 3v*x^2 + 3*x"))
    assert fact.power == 1
    assert fact.left_ghost == 0
    assert fact.linears == ((Fraction(3), 1),)
    assert str(fact) == "(x + 3)*(x^v + 0)*x"

    quad = factor_min_ghosts(P("x^2 + 6v*x + 7"))
    assert quad.quadratics == ((Fraction(6), Fraction(7), 1),)
    assert not quad.linears

    double = factor_min_ghosts(P("x^2 + 2v*x + 4"))
    assert double.linears == ((Fraction(2), 2),)
    assert not double.quadratics


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor_min_ghosts(Poly.zero())


def test_expand_examples():
    assert expand(Factorization(lead=ONE)) == P("0")
    assert expand(Factorization(lead=ONE,
                                linears=((Fraction(2), 2),))) == \
        P("x^2 + 2v*x + 4")
    f = Factorization(lead=ONE, power=1, left_ghost=Fraction(0),
                      linears=((Fraction(3), 1),))
    assert expand(f) == P("0v*x^3 + 3v*x^2 + 3*x")


def test_round_trip_and_interval_cover():
    gen = Gen(201)
    for _ in range(200):
        f = gen.monic_full(8)
        fact = factor_min_ghosts(f)
        assert e_equiv(expand(fact), f), (f, fact)
        covered = IntervalSet.of(
            (lo, hi) for lo, hi, _ in fact.factor_intervals())
        assert covered == tangible_roots(f).intervals


def test_factorization_is_stable():
    # Factoring the expansion of a factorization returns it unchanged.
    gen = Gen(202)
    for _ in range(150):
        fact = factor_min_ghosts(gen.monic_full(7))
        again = factor_min_ghosts(expand(fact))
        assert again == fact, fact


def test_all_ghost_polynomials_factor():
    gen = Gen(203)
    for _ in range(80):
        f = gen.monic_full(5).nu()
        fact = factor_min_ghosts(f)
        assert fact.lead.is_ghost
        assert e_equiv(expand(fact), f)


def test_split_examples():
    tan, intan = split_tan_intan(P("(x+2)*(0v*x+5)"))
    assert tan == P("x + 2") and intan == P("0v*x + 5")
    tan, intan = split_tan_intan(P("(x+1)*(x+2)"))
    assert tan == P("(x+1)*(x+2)") and intan == P("0")
    tan, intan = split_tan_intan(P("x^2 + 6v*x + 7"))
    assert tan == P("0") and intan == P("x^2 + 6v*x + 7")


def test_split_parts_multiply_back():
    gen = Gen(204)
    for _ in range(100):
        f = gen.monic_full(6)
        tan, intan = split_tan_intan(f)
        lead = factor_min_ghosts(f).lead
        assert e_equiv((tan * intan).scale(lead), f), f
        # The tangible part carries only linears and the power of x.
        tf = factor_min_ghosts(tan)
        assert tf.lead == ONE
        assert tf.left_ghost is None and tf.right_ghost is None
        assert not tf.quadratics


def test_e_divides_examples():
    assert e_divides(P("x + 1"), P("(x+1)*(x+2)"))
    assert not e_divides(P("x + 2v"), P("(x+1)*(x+2)"))
    assert e_divides(P("0v*x + 0"), P("0v*x^3 + 3v*x^2 + 3*x"))
    assert e_divides(P("5"), P("x + 1"))
    assert not e_divides(P("x + 1"), P("5"))


def test_e_divides_products():
    # Corner magnitudes stay within [-9, 9], so 42 is never a root.
    gen = Gen(205)
    alien = Poly.linear(Fraction(42))
    for _ in range(100):
        g = gen.monic_full(4)
        h = gen.monic_full(4)
        assert e_divides(g, g * h), (g, h)
        assert not e_divides(alien, g * h), (g, h)


def test_scaled_inputs_factor():
    gen = Gen(206)
    for _ in range(60):
        f = gen.monic_full(5).scale(tangible(gen.fraction()))
        fact = factor_min_ghosts(f)
        assert e_equiv(expand(fact), f)
        assert fact.lead == f.coeff(f.degree)


# -- oracles: the readers of the factor table before `Factorization.parts` ----


def expand_oracle(fact):
    """`expand` listing the four factor kinds itself."""
    factors = [Poly.monomial(fact.power, fact.lead)]
    if fact.left_ghost is not None:
        factors.append(left_ghost_factor(fact.left_ghost))
    if fact.right_ghost is not None:
        factors.append(right_ghost_factor(fact.right_ghost))
    factors.extend(Poly.linear(a) ** m for a, m in fact.linears)
    factors.extend(quadratic_factor(b, c) ** m for b, c, m in fact.quadratics)
    return Poly.product(factors)


def split_tan_intan_oracle(f):
    """`split_tan_intan` listing the four factor kinds itself."""
    fact = factor_min_ghosts(f)
    tan = Poly.product([Poly.monomial(fact.power),
                        *(Poly.linear(a) ** m for a, m in fact.linears)])
    intan = [Poly.constant(ONE)]
    if fact.left_ghost is not None:
        intan.append(left_ghost_factor(fact.left_ghost))
    if fact.right_ghost is not None:
        intan.append(right_ghost_factor(fact.right_ghost))
    intan.extend(quadratic_factor(b, c) ** m for b, c, m in fact.quadratics)
    return tan, Poly.product(intan)


def e_divides_oracle(g, f):
    """`e_divides` with its cofactor flags set bound by bound."""
    if g.is_zero:
        return f.is_zero
    if f.is_zero:
        return True
    gf = canonical_full(g)
    ff = canonical_full(f)
    if gf.shift > ff.shift:
        return False
    g_corners = Counter(gf.corner_roots())
    f_corners = Counter(ff.corner_roots())
    if g_corners - f_corners:
        return False
    leftover = sorted((f_corners - g_corners).elements())
    f_roots = tangible_roots(f).intervals

    t = len(leftover)
    flags = [False] * (t + 1)
    if t == 0:
        flags[0] = ff.all_ghost
    else:
        flags[0] = f_roots.contains_set(IntervalSet.of([(NEG_INF, leftover[0])]))
        flags[t] = f_roots.contains_set(IntervalSet.of([(leftover[-1], POS_INF)]))
        for i in range(1, t):
            flags[i] = f_roots.contains_set(
                IntervalSet.of([(leftover[i - 1], leftover[i])]))
    lead_mag = ff.coeffs[ff.hi].mag - gf.coeffs[gf.hi].mag
    h = full_from_corners(leftover, flags, lead_mag, shift=ff.shift - gf.shift)
    return e_equiv(g * h, f)


# Halves, so that corner roots repeat and probes land on them.
CORNERS = [Fraction(k, 2) for k in range(-6, 7)]


@st.composite
def factor_inputs(draw, max_corners=6):
    """Nonconstant polynomials read off a corner sequence.

    Corners repeat (ties), slots are ghost at random, all ghost or all
    tangible, leads are scaled and a power of x may divide.  Half the draws
    drop interior slots, which the canonical form fills in again.
    """
    h = draw(st.integers(1, max_corners))
    corners = sorted(draw(st.lists(st.sampled_from(CORNERS),
                                   min_size=h, max_size=h)))
    layer = draw(st.sampled_from([st.booleans(), st.just(True),
                                  st.just(False)]))
    flags = [draw(layer) for _ in range(h + 1)]
    lead = draw(st.sampled_from([0, 0, Fraction(7, 3), -5]))
    f = full_from_corners(corners, flags, lead, draw(st.integers(0, 2)))
    if h > 1 and draw(st.booleans()):
        drop = draw(st.sets(st.integers(f.ldeg + 1, f.degree - 1)))
        f = Poly({d: c for d, c in f.items() if d not in drop})
    return f


@settings(max_examples=300, deadline=None)
@given(factor_inputs())
def test_expand_and_split_match_the_four_branch_oracles(f):
    fact = factor_min_ghosts(f)
    assert expand(fact) == expand_oracle(fact)
    assert split_tan_intan(f) == split_tan_intan_oracle(f)


@settings(max_examples=300, deadline=None)
@given(factor_inputs(4), factor_inputs(4), st.booleans())
def test_e_divides_matches_the_flag_block_oracle(g, h, product):
    f = g * h if product else h
    assert e_divides(g, f) == e_divides_oracle(g, f)
    assert e_divides(f, g) == e_divides_oracle(f, g)


@settings(max_examples=300, deadline=None)
@given(factor_inputs(), st.lists(st.sampled_from(CORNERS + [Fraction(1, 4)]),
                                 min_size=1, max_size=6))
def test_divides_linear_witnesses_exactly_the_roots(f, probes):
    roots = tangible_roots(f)
    probes = probes + [a for lo, hi in roots.intervals
                       for a in (lo, hi) if isinstance(a, Fraction)]
    for a in probes:
        g = Poly.linear(a)
        w = divides_linear(f, a)
        monomial = canonical_full(f).hi == 0
        assert (w is not None) == (a in roots and not monomial), (f, a)
        if w is not None:
            assert verify_division(f, g, w.q), (f, a)
            assert w.ghost_sum == f + w.q * g


@settings(max_examples=300, deadline=None)
@given(factor_inputs(4), st.sampled_from(CORNERS + [Fraction(1, 4)]))
def test_divides_linear_quotient_lies_over_a_planted_one(q0, a):
    # q0 witnesses its own product with x + a, so the greatest quotient
    # lies over it as a function.
    q0 = Poly({deg: c.hat() for deg, c in q0.items()})
    w = divides_linear(q0 * Poly.linear(a), a)
    assert w is not None and e_equiv((q0 + w.q).nu(), w.q.nu()), (q0, a)
