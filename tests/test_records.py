"""Value records against the frozen dataclasses they replaced.

The oracle classes below are the earlier definitions: the same names,
fields, defaults and Factorization checks, as `@dataclass(frozen=True)`.
Equality, hashing and repr of every record must agree with them.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import supertrop
from supertrop import Element, NEG_INF, ONE, POS_INF, ZERO, Poly
from supertrop.record import Record

Endpoint = Fraction | float


# -- oracle ------------------------------------------------------------------

@dataclass(frozen=True)
class IntervalSet:
    intervals: tuple[tuple[Endpoint, Endpoint], ...] = ()


@dataclass(frozen=True)
class RootSet:
    intervals: IntervalSet = field(default_factory=IntervalSet)
    at_bottom: bool = False


@dataclass(frozen=True)
class FullPoly:
    shift: int
    coeffs: tuple[Element, ...]
    vertex: tuple[bool, ...]


@dataclass(frozen=True)
class PiecewiseLinear:
    breakpoints: tuple[Fraction, ...]
    slopes: tuple[int, ...]
    intercepts: tuple[Fraction, ...]
    piece_ghost: tuple[bool, ...]
    breakpoint_ghost: tuple[bool, ...]


@dataclass(frozen=True)
class CommonRoot:
    witness: Fraction


@dataclass(frozen=True)
class HalfTangible:
    alpha: Fraction
    beta: Fraction


@dataclass(frozen=True)
class NotGhostSum:
    pass


@dataclass(frozen=True)
class Factorization:
    lead: Element
    power: int = 0
    left_ghost: Fraction | None = None
    right_ghost: Fraction | None = None
    linears: tuple[tuple[Fraction, int], ...] = ()
    quadratics: tuple[tuple[Fraction, Fraction, int], ...] = ()

    def __post_init__(self) -> None:
        if self.lead.is_zero:
            raise ValueError("factorization of the zero polynomial")
        if self.power < 0:
            raise ValueError("negative power of x")
        roots = [a for a, _ in self.linears]
        if roots != sorted(roots) or len(set(roots)) != len(roots):
            raise ValueError("linear factors must be sorted by distinct root")
        if any(m < 1 for _, m in self.linears):
            raise ValueError("linear multiplicities must be positive")
        for b, c, m in self.quadratics:
            if m < 1:
                raise ValueError("quadratic multiplicities must be positive")
            if c - b >= b:
                raise ValueError(f"degenerate quadratic (b={b}, c={c})")


@dataclass(frozen=True)
class DivisionWitness:
    q: Poly
    ghost_sum: Poly


@dataclass(frozen=True)
class RelPrimeReport:
    resultant: Element
    relatively_prime: bool
    common: RootSet
    witness: Endpoint | None


@dataclass(frozen=True)
class BezoutReport:
    m: int
    n: int
    bound: int
    hits: tuple[tuple[Fraction, Fraction], ...]
    component_count: int
    ordinary_count: int
    bound_holds: bool
    window: tuple[Fraction, Fraction, Fraction, Fraction]
    step: Fraction


NAMES = ["IntervalSet", "RootSet", "FullPoly", "PiecewiseLinear", "CommonRoot",
         "HalfTangible", "NotGhostSum", "Factorization", "DivisionWitness",
         "RelPrimeReport", "BezoutReport"]
# Name -> class, for the records and for their oracles.
REAL, ORACLE = vars(supertrop), globals()


# -- building the same record on both sides -------------------------------------

# A record to build: its class name and field values, where a field may be
# a Spec itself.  by_keyword passes the fields as keyword arguments.
Spec = namedtuple("Spec", "name args by_keyword")


def build(ns, spec):
    args = [build(ns, a) if isinstance(a, Spec) else a for a in spec.args]
    cls = ns[spec.name]
    if spec.by_keyword:
        names = [f.name for f in dataclasses.fields(ORACLE[spec.name])]
        return cls(**dict(zip(names, args)))
    return cls(*args)


def both(spec):
    return build(REAL, spec), build(ORACLE, spec)


_fractions = st.fractions(-4, 4, max_denominator=3)
_elements = st.one_of(st.just(ZERO), st.builds(Element, _fractions, st.booleans()))
_lo = st.one_of(st.just(NEG_INF), _fractions)
_hi = st.one_of(st.just(POS_INF), _fractions)
_polys = st.dictionaries(st.integers(0, 3), _elements, max_size=3).map(Poly)


def tuples(strategy, size=3):
    return st.lists(strategy, max_size=size).map(tuple)


_linears = st.dictionaries(_fractions, st.integers(1, 2), max_size=3).map(
    lambda d: tuple(sorted(d.items())))


# (b, c, m) with c < 2b, so the quadratic is not degenerate.
_quadratics = tuples(st.builds(lambda b, d, m: (b, 2 * b - d, m), _fractions,
                               st.fractions(1, 3, max_denominator=2),
                               st.integers(1, 2)), 2)

FIELDS = {
    "IntervalSet": lambda: st.tuples(tuples(st.tuples(_lo, _hi))),
    "RootSet": lambda: st.tuples(specs("IntervalSet"), st.booleans()),
    "FullPoly": lambda: st.tuples(st.integers(0, 2), tuples(_elements),
                                  tuples(st.booleans())),
    "PiecewiseLinear": lambda: st.tuples(
        tuples(_fractions, 2), tuples(st.integers(0, 3)), tuples(_fractions),
        tuples(st.booleans()), tuples(st.booleans(), 2)),
    "CommonRoot": lambda: st.tuples(_fractions),
    "HalfTangible": lambda: st.tuples(_fractions, _fractions),
    "NotGhostSum": lambda: st.just(()),
    "Factorization": lambda: st.tuples(
        _elements.filter(lambda e: not e.is_zero), st.integers(0, 2),
        st.none() | _fractions, st.none() | _fractions, _linears, _quadratics),
    "DivisionWitness": lambda: st.tuples(_polys, _polys),
    "RelPrimeReport": lambda: st.tuples(
        _elements, st.booleans(), specs("RootSet"),
        st.one_of(st.none(), st.just(NEG_INF), _fractions)),
    "BezoutReport": lambda: st.tuples(
        st.integers(0, 2), st.integers(0, 2), st.integers(0, 4),
        tuples(st.tuples(_fractions, _fractions)), st.integers(0, 2),
        st.integers(0, 2), st.booleans(), st.tuples(*[_fractions] * 4),
        _fractions),
}


def specs(name):
    return st.builds(Spec, st.just(name), FIELDS[name](), st.booleans())


def hash_outcome(value):
    try:
        return ("hash", hash(value))
    except TypeError:  # a Poly field is unhashable, in both versions
        return ("unhashable",)


def pickled(value):
    try:
        return ("value", pickle.loads(pickle.dumps(value)))
    except AttributeError:  # an Element field does not unpickle, in both
        return ("raised", None)


# -- agreement with the oracle ------------------------------------------------

@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_value_protocol_matches_the_dataclass(name, data):
    a = data.draw(specs(name))
    # Half the time the same field values again, built as new objects.
    b = data.draw(st.one_of(st.just(a._replace(by_keyword=not a.by_keyword)),
                            specs(name)))
    real_a, oracle_a = both(a)
    real_b, oracle_b = both(b)
    assert type(real_a).__slots__ == tuple(
        f.name for f in dataclasses.fields(oracle_a))
    assert repr(real_a) == repr(oracle_a)
    assert (real_a == real_b) == (oracle_a == oracle_b)
    assert (real_a != real_b) == (oracle_a != oracle_b)
    assert real_a == real_a and not real_a != real_a
    ha, hb = hash_outcome(real_a), hash_outcome(real_b)
    assert ha[0] == hash_outcome(oracle_a)[0]
    if real_a == real_b:
        assert ha == hb
    assert copy.copy(real_a) == real_a
    kind, value = pickled(real_a)
    assert kind == pickled(oracle_a)[0]
    assert kind == "raised" or value == real_a


def test_records_of_different_classes_never_compare_equal():
    class LookAlike(Record):
        __slots__ = ("witness",)

        def __init__(self, witness):
            object.__setattr__(self, "witness", witness)

    class Empty(Record):
        __slots__ = ()

    root = supertrop.CommonRoot(Fraction(1))
    assert root == supertrop.CommonRoot(Fraction(1))
    assert root != LookAlike(Fraction(1)) and LookAlike(Fraction(1)) != root
    assert root != (Fraction(1),) and root != Fraction(1)
    assert supertrop.NotGhostSum() != Empty()
    assert supertrop.NotGhostSum() == supertrop.NotGhostSum()
    empty = supertrop.IntervalSet(())
    assert empty != supertrop.RootSet(empty) and empty != ()


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_fields_cannot_be_assigned_or_deleted(name, data):
    record = build(REAL, data.draw(specs(name)))
    for attr in (*type(record).__slots__, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, attr, None)
        with pytest.raises(AttributeError):
            delattr(record, attr)


def test_keywords_and_defaults():
    for ns in (REAL, ORACLE):
        assert repr(ns["Factorization"](lead=ONE)) == (
            "Factorization(lead=Element(0), power=0, left_ghost=None, "
            "right_ghost=None, linears=(), quadratics=())")
        assert repr(ns["RootSet"]()) == (
            "RootSet(intervals=IntervalSet(intervals=()), at_bottom=False)")
        assert repr(ns["IntervalSet"]()) == "IntervalSet(intervals=())"
    assert supertrop.RootSet() == supertrop.RootSet(supertrop.IntervalSet.empty())
    assert supertrop.Factorization(ONE, 2) == supertrop.Factorization(power=2, lead=ONE)
    with pytest.raises(TypeError):
        supertrop.CommonRoot()
    with pytest.raises(TypeError):
        supertrop.HalfTangible(Fraction(1), Fraction(2), Fraction(3))
    with pytest.raises(TypeError):
        supertrop.RootSet(bottom=True)


_any_pairs = st.lists(st.tuples(_fractions, st.integers(-1, 2)), max_size=3).map(tuple)
_any_triples = st.lists(st.tuples(_fractions, _fractions, st.integers(-1, 2)),
                        max_size=2).map(tuple)


def _outcome(cls, args):
    try:
        return ("value", repr(cls(*args)))
    except Exception as exc:  # the class is part of the outcome
        return ("raised", type(exc), str(exc))


@settings(max_examples=150, deadline=None)
@given(st.tuples(_elements, st.integers(-1, 2), st.none() | _fractions,
                 st.none() | _fractions, _linears | _any_pairs,
                 _quadratics | _any_triples))
def test_factorization_validation_matches_the_dataclass(args):
    assert (_outcome(supertrop.Factorization, args)
            == _outcome(Factorization, args))
