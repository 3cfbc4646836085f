"""End-to-end runs of the command line interface."""

import importlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import supertrop
from supertrop.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out.rstrip("\n"), err


def test_canon(capsys):
    code, out, _ = run(capsys, "canon", "x^2 + -5*x + 0")
    assert (code, out) == (0, "x^2 + 0v*x + 0")
    code, out, _ = run(capsys, "canon", "--", "-inf")
    assert (code, out) == (0, "-inf")


def test_canon_json(capsys):
    code, out, _ = run(capsys, "canon", "--json", "x + 1")
    data = json.loads(out)
    assert code == 0 and data["vars"] == 1
    assert {t["i"]: t["value"] for t in data["terms"]} == {0: "1", 1: "0"}


def test_roots(capsys):
    code, out, _ = run(capsys, "roots", "x^2 + 6v*x + 7")
    assert (code, out) == (0, "[1, 6]")
    code, out, _ = run(capsys, "roots", "(x+1)*(x+2)")
    assert (code, out) == (0, "{1} u {2}")
    code, out, _ = run(capsys, "roots", "--json", "x^2 + 6v*x + 7")
    data = json.loads(out)
    assert data == {"intervals": [["1", "6"]], "at_bottom": False}


def test_factor(capsys):
    code, out, _ = run(capsys, "factor", "0v*x^3 + 3v*x^2 + 3*x")
    assert (code, out) == (0, "(x + 3)*(x^v + 0)*x")
    code, out, _ = run(capsys, "factor", "--json", "x^2 + 6v*x + 7")
    data = json.loads(out)
    assert data["quadratics"] == [["6", "7", 1]]
    assert data["text"] == "(x^2 + 6v*x + 7)"


def test_factor_rejects_zero(capsys):
    code, _, err = run(capsys, "factor", "--", "-inf")
    assert code == 2 and err.startswith("error:")


def test_resultant_methods(capsys):
    code, out, _ = run(capsys, "resultant", "x^2 + 3v*x + 2", "x + 5")
    assert (code, out) == (0, "10")
    code, out, _ = run(capsys, "resultant", "--method", "assignment",
                       "(x+1)*(x+2)", "x + 1")
    assert (code, out) == (0, "3v")
    code, out, _ = run(capsys, "resultant", "--method", "nu",
                       "x^2 + 3v*x + 2", "x + 5")
    assert (code, out) == (0, "10v")
    # The oracle routes live in supertrop.checks, not on the command line.
    for method in ("dp", "recursive", "product", "quadratic"):
        code, out, err = run(capsys, "resultant", "--method", method,
                             "(x+3)*(x+4)", "x + 2")
        assert (code, out) == (1, ""), method
        assert err.startswith("usage:"), method
        code, out, err = run(capsys, "resultant", "--json", "--method",
                             method, "(x+3)*(x+4)", "x + 2")
        assert (code, err) == (1, ""), method
        error = json.loads(out)["error"]
        assert error["kind"] == "parse" and method in error["message"]


def test_resultant_domain_error(capsys):
    code, _, err = run(capsys, "resultant", "--", "-inf", "x + 1")
    assert code == 2 and err.startswith("error:")


def test_relprime(capsys):
    code, out, _ = run(capsys, "relprime", "(x+1)*(x+2)", "x + 1")
    assert (code, out) == (0, "not relatively prime; common root 1")
    code, out, _ = run(capsys, "relprime", "2v*x^2 + 4*x", "x + 1v")
    assert (code, out) == (0, "relatively prime")
    code, out, _ = run(capsys, "relprime", "--json", "(x+1)*(x+2)", "x + 1")
    data = json.loads(out)
    assert data["relatively_prime"] is False
    assert data["witness"] == "1"
    assert data["resultant"].endswith("v")
    code, _, err = run(capsys, "relprime", "x + 1", "3")
    assert code == 2 and err.startswith("error:")


def test_divides(capsys):
    code, out, _ = run(capsys, "divides", "x^2 + 6v*x + 7", "4")
    assert (code, out) == (0, "x + 3")
    code, out, _ = run(capsys, "divides", "x^2 + 6v*x + 7", "0")
    assert (code, out) == (0, "no")
    code, out, _ = run(capsys, "divides", "--json", "x^2 + 6v*x + 7", "7")
    assert json.loads(out) == {"divides": False, "q": None, "ghost_sum": None}
    code, _, err = run(capsys, "divides", "x^2 + 1", "1/0")
    assert code == 1 and err.startswith("parse error:")


def test_verify_division(capsys):
    code, out, _ = run(capsys, "verify-division",
                       "x^2 + 6v*x + 7", "x + 4", "x + 3")
    assert (code, out) == (0, "true")
    code, out, _ = run(capsys, "verify-division",
                       "x^2 + 6v*x + 7", "x + 9", "x + 1")
    assert (code, out) == (0, "false")


def test_bezout(capsys, tmp_path):
    code, out, _ = run(capsys, "bezout", "x + y + 0", "1*x + y + 3")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "degrees: m=1 n=1, bound 1"
    assert lines[1] == "hits: 1"
    assert lines[2] == "components: 1 (EXPERIMENTAL)"
    assert lines[3] == "ordinary: 1"
    assert lines[4] == "bound holds: true"

    csv = tmp_path / "hits.csv"
    code, out, _ = run(capsys, "bezout", "--json", "--csv", str(csv),
                       "x + y + 0", "1*x + y + 3")
    data = json.loads(out)
    assert data["hits"] == [["2", "2"]]
    assert data["bound_holds"] is True
    assert data["component_count_experimental"] is True
    assert csv.read_text() == "x,y\n2,2\n"


def test_bezout_window_and_step(capsys):
    code, out, _ = run(capsys, "bezout", "--window", "0,4,0,4",
                       "--step", "1/2", "x + y + 0", "1*x + y + 3")
    assert code == 0 and "hits: 1" in out
    code, _, err = run(capsys, "bezout", "--window", "1,2,3",
                       "x + y + 0", "x + y + 1")
    assert code == 1 and err.startswith("parse error:")
    code, _, err = run(capsys, "bezout", "--step", "0",
                       "x + y + 0", "x + y + 1")
    assert code == 2 and err.startswith("error:")
    # A window that begins with '-' is written with '=', as the help says.
    code, out, _ = run(capsys, "bezout", "--window=-1,1,-1,1",
                       "x + y + 0", "x + y + 0v")
    assert code == 0 and "hits: 28" in out
    code, out, _ = run(capsys, "bezout", "--window=1,3,1,3", "--step",
                       "1/1000", "x + y + 0", "1*x + y + 3")
    assert code == 0 and "hits: 1" in out


def test_rational_arguments_follow_the_grammar(capsys):
    # Decimals and exponents are not rationals of the grammar; Fraction
    # read "1e10000000" by building a ten-million-digit power of ten.
    for bad in ("1e10000000", "0.5", "1e-3"):
        code, out, err = run(capsys, "divides", "x + 1", bad)
        assert (code, out) == (1, "") and err.startswith("parse error:"), bad
    for bad in ("0.5", "1e-3"):
        for option in (["--step", bad], [f"--window=0,{bad},0,1"]):
            code, out, err = run(capsys, "bezout", *option,
                                 "x + y + 0", "x + y + 1")
            assert (code, out) == (1, "") and err.startswith("parse error:")
    code, out, _ = run(capsys, "divides", "--", "(x + -5/2)*(x + 1)", "-5/2")
    assert (code, out) == (0, "x + 1")


def test_usage_errors_exit_1(capsys):
    # argparse exits 2, the domain-error code, on a command line it cannot
    # read; main returns the parse-error code instead of raising SystemExit.
    for argv in (["canon"], ["divides", "x + 1", "-5/2"],
                 ["bezout", "x + y + 0", "1*x + y + 3",
                  "--window", "-10,10,-10,10"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("usage:"), argv


def test_help_exits_0(capsys):
    for argv in (["--help"], ["bezout", "--help"]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out.startswith("usage: supertrop")


def test_unwritable_csv_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "bezout", "x + y + 0", "1*x + y + 3",
                         "--csv", str(tmp_path / "missing" / "h.csv"))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "h.csv" in err


def test_json_errors_are_objects_on_stdout(capsys, monkeypatch, tmp_path):
    # Under --json a failure is one object on stdout, with the exit code of
    # the plain run; the position is the parse error's, otherwise null.
    missing = str(tmp_path / "missing" / "h.csv")
    cases = [
        (["canon", "--json", "(x"], 1, "parse", 2,
         "expected ')', found 'end' at position 2"),
        (["factor", "--json", "--", "-inf"], 2, "domain", None, "zero"),
        (["bezout", "--json", "x + y + 0", "1*x + y + 3", "--csv", missing],
         2, "domain", None, "h.csv"),
        # Usage errors: argparse's message, and nothing on stderr.
        (["roots", "--json", "-inf"], 1, "parse", None,
         "the following arguments are required: poly"),
        (["canon", "--json"], 1, "parse", None,
         "the following arguments are required: poly"),
    ]
    for argv, want, kind, pos, words in cases:
        code, out, err = run(capsys, *argv)
        assert (code, err) == (want, ""), argv
        error = json.loads(out)["error"]
        assert (error["kind"], error["position"]) == (kind, pos), argv
        assert words in error["message"], argv
    module = importlib.import_module("supertrop.resultant")
    real = module._merge
    monkeypatch.setattr(module, "_merge", lambda *a: real(*a).nu())
    code, out, err = run(capsys, "relprime", "--json", "x + 1", "x + 2")
    assert (code, err) == (3, "")
    assert json.loads(out)["error"]["kind"] == "check"


def test_stdin_dash(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("x^2 + 6v*x + 7"))
    code, out, _ = run(capsys, "roots", "-")
    assert (code, out) == (0, "[1, 6]")


def test_parse_error_exit(capsys):
    code, _, err = run(capsys, "canon", "x +")
    assert code == 1
    assert err.startswith("parse error:") and "position" in err


def test_over_long_number_is_a_parse_error(capsys):
    code, _, err = run(capsys, "canon", "x + " + "1" * 5000)
    assert code == 1
    assert err.startswith("parse error: number too long at position 4")


def test_parse_error_for_deep_nesting(capsys):
    code, _, err = run(capsys, "canon", "(" * 3000 + "x" + ")" * 3000)
    assert code == 1
    assert err.startswith("parse error: nesting too deep")


def test_corpus_entry_without_kind_is_a_domain_error(capsys, monkeypatch):
    # A missing kind is a fault of the corpus, like an unknown kind: exit
    # 2, not a KeyError with the parse-error code.
    from supertrop import checks
    monkeypatch.setattr(checks, "load_corpus", lambda: [{"name": "no kind"}])
    code, _, err = run(capsys, "selfcheck", "--only", "corpus")
    assert code == 2
    assert err.startswith("error: unknown corpus entry kind None")


def test_failed_runtime_cross_check_exits_3(capsys, monkeypatch):
    # `decide` cross-checks the merge against the root sets; a failure is
    # a bug in the library, reported with the self-check code.  The package
    # attribute `supertrop.resultant` is the function, hence import_module.
    module = importlib.import_module("supertrop.resultant")
    real = module._merge
    monkeypatch.setattr(module, "_merge", lambda *a: real(*a).nu())
    code, out, err = run(capsys, "relprime", "x + 1", "x + 2")
    assert (code, out) == (3, "")
    assert err.startswith("internal check failed: ")
    assert "resultant and root sets disagree" in err


def test_resource_errors_exit_2(capsys, monkeypatch):
    # Running out of memory or stack is a domain error, with no traceback,
    # in text and under --json.  The command only raises the error: no
    # test allocates real memory or recurses deeply.
    from supertrop import cli
    cases = [(MemoryError(), "out of resources (MemoryError)"),
             (RecursionError("maximum recursion depth exceeded"),
              "maximum recursion depth exceeded")]
    for exc, message in cases:
        def raise_(args, exc=exc):
            raise exc
        monkeypatch.setattr(cli, "_cmd_canon", raise_)
        code, out, err = run(capsys, "canon", "x + 1")
        assert (code, out, err) == (2, "", f"error: {message}\n")
        code, out, err = run(capsys, "canon", "--json", "x + 1")
        assert (code, err) == (2, "")
        assert json.loads(out) == {"error": {"kind": "domain",
                                             "message": message,
                                             "position": None}}


def test_selfcheck_fails_under_optimize():
    # -O strips asserts; the corpus verdicts must still fail.
    script = """
import sys
from supertrop import checks
from supertrop.cli import main
assert False, "not optimized"
corpus = checks.load_corpus()
for entry in corpus:
    if entry.get("name") == "resultant tie case":
        entry["expect"] = "7v"
checks.load_corpus = lambda: corpus
sys.exit(main(["selfcheck", "--only", "corpus"]))
"""
    src = str(Path(supertrop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 3, proc.stderr
    lines = proc.stdout.splitlines()
    fails = [line for line in lines if line.startswith("FAIL")]
    assert len(fails) == 1 and fails[0].startswith("FAIL resultant tie case")
    m = re.fullmatch(r"(\d+)/(\d+) passed", lines[-1])
    assert m and int(m.group(1)) == int(m.group(2)) - 1


def test_selfcheck_corpus(capsys):
    code, out, _ = run(capsys, "selfcheck", "--only", "corpus")
    assert code == 0
    last = out.splitlines()[-1]
    m = re.fullmatch(r"(\d+)/(\d+) passed", last)
    assert m and m.group(1) == m.group(2)
    assert int(m.group(1)) >= 100


def _run_into_closed_pipe(*argv):
    # The read end is closed before the child starts, so its first write
    # to stdout fails with EPIPE, as under `| head -1` once head has quit.
    src = str(Path(supertrop.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "supertrop.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, text=True)
    finally:
        os.close(write_end)


def test_closed_stdout_keeps_the_exit_status():
    for argv in (["bezout", "x + y + 0", "1*x + y + 3"],
                 ["canon", "--json", "x + 1"],
                 ["selfcheck", "--only", "corpus"]):
        proc = _run_into_closed_pipe(*argv)
        assert (proc.returncode, proc.stderr) == (0, ""), argv
    proc = _run_into_closed_pipe("canon", "x +")
    assert proc.returncode == 1 and proc.stderr.startswith("parse error:")


# Modules the CLI must not load at start: the record machinery of
# `dataclasses` (with `inspect`), runtime `typing`, and the self-check with
# the corpus reader and its generator.
_NOT_AT_START = ("dataclasses", "inspect", "typing", "importlib.resources",
                 "random", "supertrop.checks")


def _bare_child(script):
    # -S skips the site module, so nothing a .pth file imports hides what
    # the package itself loads.
    src = str(Path(supertrop.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys\nsys.path.insert(0, {src!r})\n{script}"],
        capture_output=True, text=True)


def test_cold_start_loads_only_what_the_answer_needs():
    proc = _bare_child("import supertrop.cli\n"
                       f"print(sorted(set({_NOT_AT_START!r}) & set(sys.modules)))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
    proc = _bare_child("from supertrop.cli import main\n"
                       "sys.exit(main(['selfcheck', '--only', 'corpus']))")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.fullmatch(r"(\d+)/\1 passed", proc.stdout.splitlines()[-1])
