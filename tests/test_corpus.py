"""The worked-example corpus: one row per entry kind and one verdict."""

import copy

import pytest

from supertrop import checks

CORPUS = checks.load_corpus()

# (kind, field, wrong value).  Each wrong value parses but differs from the
# stored one; the optional fields of a kind are listed as well.
CORRUPTIONS = [
    ("element", "expect", "2"),
    ("add", "expect", "0v*x^2 + 1*x + 0v"),
    ("mul", "expect", "x^2 + 2*x + 4"),
    ("eval", "expect", "24"),
    ("canon", "expect", "x^2 + 0"),
    ("essential", "expect", "x^2 + 0v*x + 0"),
    ("ggraph", "breakpoints", ["2"]),
    ("ggraph", "slopes", [1, 0]),
    ("ggraph", "piece_ghost", [False, True]),
    ("e_equiv", "expect", False),
    ("roots", "expect", "[1, 7]"),
    ("roots", "at_bottom", True),
    ("classify", "expect", ["right", "1"]),
    ("ghost_sum", "expect", {"kind": "not_ghost_sum"}),
    ("factor", "expect", "(x + 3)*(x + 0)*x"),
    ("split", "tan", "x + 3"),
    ("split", "intan", "0v*x + 6"),
    ("e_divides", "expect", False),
    ("mul_shift", "expect", "x + 3"),
    ("add_shift", "expect", "x^2 + 5*x + 10"),
    ("sylvester", "expect", [["1", "0"], ["0", "1"]]),
    ("resultant", "expect", "6"),
    ("permanent", "expect", "5v"),
    ("relprime", "expect_prime", True),
    ("relprime", "witness", "2"),
    ("relprime", "resultant", "2"),
    ("verify_division", "expect", False),
    ("divides_linear", "expect", False),
    ("divides_linear", "q", "x + 3"),
    ("radical", "expect", False),
    ("frobenius", "expect", "x^2 + 6"),
    ("eval2", "expect", "2v"),
    ("specialize", "expect", "x + 2"),
    ("res2", "expect", "x + 5"),
    ("bezout", "hit_count", 2),
    ("bezout", "component_count", 2),
    ("bezout", "ordinary_count", 2),
    ("parse_print", "expect", "x^2 + 6*x + 7"),
]


def test_every_row_is_used_by_the_corpus():
    kinds = {entry["kind"] for entry in CORPUS}
    assert set(checks._ENTRIES) == kinds
    assert {kind for kind, _, _ in CORRUPTIONS} == kinds


@pytest.mark.parametrize("kind, field, wrong", CORRUPTIONS,
                         ids=[f"{k}-{f}" for k, f, _ in CORRUPTIONS])
def test_a_corrupted_field_fails_exactly_its_entry(monkeypatch, kind, field,
                                                    wrong):
    corpus = copy.deepcopy(CORPUS)
    # The first entry of the kind that carries the field.
    target = next(e for e in corpus if e["kind"] == kind and field in e)
    assert target[field] != wrong
    target[field] = wrong
    monkeypatch.setattr(checks, "load_corpus", lambda: corpus)
    failed = [name for name, ok, _ in checks.run_corpus() if not ok]
    assert failed == [target["name"]]


def test_unknown_kind_is_an_error(monkeypatch):
    monkeypatch.setattr(checks, "load_corpus", lambda: [{"kind": "cube"}])
    with pytest.raises(ValueError, match="unknown corpus entry kind 'cube'"):
        checks.run_corpus()
