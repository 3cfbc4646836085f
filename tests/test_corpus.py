"""The worked-example corpus: one row per entry kind and one verdict."""

import copy

import pytest

from supertrop import checks, cli

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


def test_a_crashing_entry_fails_exactly_its_entry(monkeypatch, capsys):
    corpus = copy.deepcopy(CORPUS)
    target = next(e for e in corpus if e["kind"] == "element")
    target["expect"] = "2 +"  # no longer parses
    monkeypatch.setattr(checks, "load_corpus", lambda: corpus)
    failed = [(name, detail) for name, ok, detail in checks.run_corpus()
              if not ok]
    assert [name for name, _ in failed] == [target["name"]]
    assert failed[0][1].startswith("ValueError: ")
    assert cli.main(["selfcheck", "--only", "corpus"]) == 3
    assert f"FAIL {target['name']}" in capsys.readouterr().out


def test_an_unknown_resultant_route_fails_exactly_its_entry(monkeypatch):
    # A name outside the table fails its entry instead of falling back to
    # `resultant`.
    corpus = copy.deepcopy(CORPUS)
    target = next(e for e in corpus if e["kind"] == "resultant"
                  and "method" not in e)
    target["method"] = "dp"
    monkeypatch.setattr(checks, "load_corpus", lambda: corpus)
    failed = [(name, detail) for name, ok, detail in checks.run_corpus()
              if not ok]
    assert failed == [(target["name"], "KeyError: 'dp'")]


def test_a_crashing_check_fails_exactly_that_check(monkeypatch, capsys):
    def crashes():
        raise ArithmeticError("out of range")

    monkeypatch.setattr(checks, "CHECKS",
                        [("crashes", crashes), ("passes", lambda: 4)])
    assert cli.main(["selfcheck", "--only", "properties"]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out == ["FAIL crashes  [ArithmeticError: out of range]",
                   "ok   passes  [4 cases]", "1/2 passed"]
