"""End-to-end runs of the command line interface."""

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
    for method in ("assignment", "dp"):
        code, out, _ = run(capsys, "resultant", "--method", method,
                           "(x+1)*(x+2)", "x + 1")
        assert (code, out) == (0, "3v")
    code, out, _ = run(capsys, "resultant", "--method", "nu",
                       "x^2 + 3v*x + 2", "x + 5")
    assert (code, out) == (0, "10v")
    code, out, _ = run(capsys, "resultant", "--method", "recursive",
                       "(x+3)*(x+4)", "x + 2")
    assert (code, out) == (0, "7")
    code, out, _ = run(capsys, "resultant", "--method", "product",
                       "(x+3)*(x+4)", "x + 2")
    assert (code, out) == (0, "7")
    code, out, _ = run(capsys, "resultant", "--method", "quadratic",
                       "x + 1", "x^2 + 3v*x + 2")
    assert (code, out) == (0, "4v")


def test_resultant_domain_error(capsys):
    code, _, err = run(capsys, "resultant", "--method", "product",
                       "x^2 + 6v*x + 7", "x + 1")
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
