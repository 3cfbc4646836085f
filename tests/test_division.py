"""Division witnesses, linear divisibility, radical certificates."""

from fractions import Fraction
from itertools import product

import pytest

from supertrop import (ONE, ZERO, Element, Poly, divides_linear, e_equiv,
                       is_ghost_poly, parse_poly, radical_member_check,
                       tangible, tangible_roots, verify_division)
from supertrop.checks import Gen, _relayer, check_root_division_equivalence

P = parse_poly


def test_verify_division_examples():
    f = P("(x^2 + 6v*x + 7)^2")
    assert verify_division(f, P("x^2 + 4v*x + 6"), P("x^2 + 8"))
    assert verify_division(P("x^2 + 6v*x + 7"), P("x + 4"), P("x + 3"))
    assert not verify_division(P("x^2 + 6v*x + 7"), P("x + 9"), P("x + 1"))


def test_verify_division_rejects_bad_witness():
    f = P("x^2 + 1")
    with pytest.raises(ValueError):
        verify_division(f, P("x + 1"), P("0v*x + 1"))
    with pytest.raises(ValueError):
        verify_division(f, P("x + 1"), Poly.zero())


def test_verify_division_matches_the_nu_definition():
    # The definition: s = f + q*g is ghost and e-equivalent to f after nu,
    # three hulls, against one comparison of s's and f's canonical forms.
    gen = Gen(4101)
    accepted = 0
    for _ in range(300):
        g, q = gen.poly(3), _relayer(gen, gen.poly(2, 0))
        q = Poly({i: Element(c.mag) for i, c in q.items()})
        f = gen.poly(5, 0)
        if gen.rng.random() < 0.5:
            # Over q*g, ghost where it wins: often a witness.
            f = _relayer(gen, q * g) + f.nu()
        s = f + q * g
        want = is_ghost_poly(s) and e_equiv(s.nu(), f.nu())
        assert verify_division(f, g, q) == want, (f, g, q)
        accepted += want
    assert accepted > 30
    assert verify_division(Poly.zero(), Poly.zero(), P("x + 1"))
    assert not verify_division(Poly.zero(), P("x"), P("x + 1"))


def test_divides_linear_examples():
    f = P("x^2 + 6v*x + 7")
    expected = {0: False, 1: True, 4: True, 6: True, 7: False}
    for a, ok in expected.items():
        w = divides_linear(f, Fraction(a))
        assert (w is not None) == ok, a
        if w is not None:
            assert verify_division(f, P(f"x + {a}"), w.q)
            assert w.ghost_sum == f + w.q * P(f"x + {a}")
            assert is_ghost_poly(w.ghost_sum)

    w = divides_linear(P("(x+2)^2"), Fraction(2))
    assert w is not None and str(w.q) == "x + 2"
    assert divides_linear(P("(x+1)*(x+2)"), Fraction(3)) is None


def test_divides_linear_takes_the_greatest_quotient():
    # 2 is the root of the linear factor and lies inside the root interval
    # [1, 3] of the quadratic.  Both x^2 + 3*x + 4 (the linear dropped) and
    # x^2 + 2*x + 4 (the quadratic replaced by x + 3) are witnesses; the
    # greatest is returned.
    f = P("x^3 + 3v*x^2 + 5v*x + 6")
    w = divides_linear(f, 2)
    assert w.q == P("x^2 + 3*x + 4")
    assert verify_division(f, P("x + 2"), P("x^2 + 2*x + 4"))


def test_divides_linear_quotient_lies_over_every_witness():
    # Brute force over the tangible quotients of degree <= 2 with
    # half-integer coefficients in [-2, 2]: each one accepted lies under
    # the returned q as a function, and none is accepted where
    # divides_linear finds no witness.
    halves = [ZERO] + [tangible(Fraction(n, 2)) for n in range(-4, 5)]
    quotients = [Poly(dict(enumerate(cs)))
                 for cs in product(halves, repeat=3)][1:]
    gen = Gen(405)
    for _ in range(8):
        deg = gen.rng.randint(1, 3)
        f = Poly({i: Element(gen.fraction(-2, 2), gen.rng.random() < 0.35)
                  for i in range(deg + 1)
                  if i == deg or gen.rng.random() < 0.7})
        roots = tangible_roots(f)
        probes = {a for lo, hi in roots.intervals for a in (lo, hi)
                  if isinstance(a, Fraction)} | {gen.fraction(-2, 2)}
        for a in probes:
            w = divides_linear(f, a)
            g = Poly.linear(a)
            for q in quotients:
                if verify_division(f, g, q):
                    assert w is not None, (f, a, q)
                    assert e_equiv((q + w.q).nu(), w.q.nu()), (f, a, q, w.q)


def test_root_division_equivalence_check():
    assert check_root_division_equivalence() > 0


def test_divides_linear_rejects_constants():
    with pytest.raises(ValueError):
        divides_linear(P("5"), Fraction(1))
    with pytest.raises(ValueError):
        divides_linear(Poly.zero(), Fraction(1))


def test_ghost_monomial_has_no_witness():
    # Every point is a root, but no tangible quotient matches the slope.
    assert divides_linear(P("0v*x^2"), Fraction(3)) is None
    assert divides_linear(P("0v*x"), Fraction(-1)) is None


def test_all_ghost_nonmonomial_witnesses():
    gen = Gen(401)
    for _ in range(80):
        f = gen.monic_full(5).nu()
        a = gen.fraction(-12, 12)
        w = divides_linear(f, a)
        assert w is not None, (f, a)
        assert verify_division(f, Poly({1: ONE, 0: tangible(a)}), w.q), (f, a)


def test_roots_and_witnesses_agree():
    # Soundness and completeness of the witness construction against the
    # computed root set, on and off the roots.
    gen = Gen(402)
    for _ in range(150):
        f = gen.monic_full(6)
        roots = tangible_roots(f)
        probes = {a for lo, hi in roots.intervals
                  for a in (lo, hi) if isinstance(a, Fraction)}
        probes.update(gen.fraction(-11, 11) for _ in range(4))
        for a in probes:
            w = divides_linear(f, a)
            assert (w is not None) == (a in roots), (f, a)
            if w is not None:
                assert verify_division(f, Poly({1: ONE, 0: tangible(a)}), w.q)


def test_no_witness_exists_off_roots():
    # Exhaustive search over small tangible quotients backs up the None
    # answers for the running example.
    f = P("x^2 + 6v*x + 7")
    mags = [Fraction(n, 2) for n in range(-4, 21)]
    for a in (Fraction(0), Fraction(7)):
        g = Poly({1: ONE, 0: tangible(a)})
        found = False
        for c in mags:
            if verify_division(f, g, Poly.constant(tangible(c))):
                found = True
        for c, d in product(mags, repeat=2):
            if verify_division(f, g, Poly({1: tangible(c), 0: tangible(d)})):
                found = True
        assert not found, a


def test_radical_examples():
    a = P("x + 4")
    assert radical_member_check(a, 2, P("(x+4)^2"), P("0"))
    assert radical_member_check(a, 1, P("(x+4)*(x+1)"), P("x + 1"))
    assert not radical_member_check(P("x + 9"), 1, P("(x+4)^2"), P("x + 4"))
    with pytest.raises(ValueError):
        radical_member_check(a, 0, P("(x+4)^2"), P("0"))


def test_radical_power_closure():
    # (a1 + a2)^(k1 k2) divides b1^k2 + b2^k1 with the trivial witness
    # whenever bi is a ghost-layer variant of ai^ki.
    gen = Gen(403)
    for _ in range(50):
        a1, _ = gen.tangible_split(2)
        a2, _ = gen.tangible_split(2)
        k1 = gen.rng.randint(1, 2)
        k2 = gen.rng.randint(1, 2)
        b1 = _relayer(gen, a1 ** k1)
        b2 = _relayer(gen, a2 ** k2)
        assert verify_division((a1 + a2) ** (k1 * k2),
                               b1 ** k2 + b2 ** k1,
                               P("0")), (a1, a2, k1, k2)


def test_witness_ghost_sum_matches_function():
    gen = Gen(404)
    for _ in range(100):
        f = gen.monic_full(5)
        pts = sorted({a for lo, hi in tangible_roots(f).intervals
                      for a in (lo, hi) if isinstance(a, Fraction)})
        if not pts:
            continue
        a = pts[len(pts) // 2]
        w = divides_linear(f, a)
        assert w is not None
        assert e_equiv(w.ghost_sum.nu(), f.nu())
