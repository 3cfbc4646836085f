"""The cli_pinned workload: one `python -m supertrop.cli` child at a time.

Inputs are pinned README-style cases with known answers.  A pass runs
every case with text output and with ``--json``, plus error cases; the
seed picks which error cases and the order.  Each request is one child
process; its latency is the child's wall time, interpreter start and
argparse included.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

from supertrop import parse_poly, poly_from_json

from workloads import Request, Workload, expect

# subcommand -> [(arguments, text answer, fields of the --json answer)]
CASES = {
    "canon": [
        (["x^2 + -5*x + 0"], "x^2 + 0v*x + 0", None),
        (["(x + 1)*(x + 2v)^2"], "x^3 + 2v*x^2 + 4v*x + 5v", None),
        (["3*x^4 + 1v*x + 2"], "3*x^4 + 11/4v*x^3 + 5/2v*x^2 + 9/4v*x + 2", None),
    ],
    "roots": [
        (["x^2 + 6v*x + 7"], "[1, 6]",
         {"intervals": [["1", "6"]], "at_bottom": False}),
        (["(x+1)*(x+2)"], "{1} u {2}",
         {"intervals": [["1", "1"], ["2", "2"]], "at_bottom": False}),
        (["x^3 + 2v*x + 1"], "[-1, 1]",
         {"intervals": [["-1", "1"]], "at_bottom": False}),
    ],
    "factor": [
        (["x^2 + 6v*x + 7"], "(x^2 + 6v*x + 7)", {"text": "(x^2 + 6v*x + 7)"}),
        (["(x + 1)*(x + 3)^2"], "(x + 1)*(x + 3)^2", {"text": "(x + 1)*(x + 3)^2"}),
        (["x^3 + 4v*x^2 + 1*x + 0v"], "(x + -2)^2*(x + 4v)",
         {"text": "(x + -2)^2*(x + 4v)"}),
    ],
    "resultant": [
        (["x^2 + 3v*x + 2", "x + 5"], "10", {"resultant": "10"}),
        (["(x+1)*(x+2)", "x + 1"], "3v", {"resultant": "3v"}),
        (["--method", "nu", "x^2 + 3*x + 1", "x + 4"], "8v", {"resultant": "8v"}),
    ],
    "relprime": [
        (["(x+1)*(x+2)", "x + 1"], "not relatively prime; common root 1",
         {"relatively_prime": False, "witness": "1"}),
        (["x^2 + 3*x + 1", "x + 5"], "relatively prime",
         {"relatively_prime": True, "witness": None}),
    ],
    "divides": [
        (["x^2 + 6v*x + 7", "3"], "x + 4", {"divides": True, "q": "x + 4"}),
        (["(x+1)*(x+2)", "5"], "no", {"divides": False, "q": None}),
    ],
    "verify-division": [
        (["(x + 1)*(x + 2)", "x + 1", "x + 2"], "true", {"valid": True}),
        (["(x + 1)*(x + 2)", "x + 1", "x + 3"], "false", {"valid": False}),
    ],
    "bezout": [
        (["x + y + 1", "x + 2*y + 0"], None,
         {"hit_count": 1, "ordinary_count": 1, "bound": 1, "bound_holds": True}),
        (["x + y + 0", "x + 1v"], None,
         {"hit_count": 171, "ordinary_count": 0, "bound": 1, "bound_holds": True}),
    ],
    "selfcheck-corpus": [([], None, None)],
}

# (subcommand, arguments, exit code): 1 is a parse error, 2 a domain error.
ERRORS = [
    ("canon", ["x^^2"], 1),
    ("roots", ["(x + 1"], 1),
    ("divides", ["x + 1", "1/0"], 1),
    ("factor", ["--", "-inf"], 2),
    ("relprime", ["3", "x + 1"], 2),
    ("resultant", ["--", "-inf", "x + 1"], 2),
    ("bezout", ["x + y", "x + 1", "--step", "0"], 2),
]
ERRORS_PER_PASS = 4

_PASSED = re.compile(r"^(\d+)/\1 passed$")


def build(gen, short: bool, traced: bool) -> list[Request]:
    rng = gen.rng
    pool = []
    for sub in ["canon", "selfcheck-corpus"] if short else CASES:
        for args, text, fields in CASES[sub][:1] if short else CASES[sub]:
            for as_json in (False, True):
                pool.append(Request(sub, {"args": args, "json": as_json, "code": 0,
                                          "text": text, "fields": fields}))
    for sub, args, code in rng.sample(ERRORS, 1 if short else ERRORS_PER_PASS):
        pool.append(Request(sub, {"args": args, "json": False, "code": code}))
    rng.shuffle(pool)
    return pool


def argv(req: Request) -> list[str]:
    d = req.data
    if req.kind == "selfcheck-corpus":
        cmd = ["selfcheck", "--only", "corpus"]
    else:
        cmd = [req.kind]
    if d["json"]:
        cmd.append("--json")
    return [sys.executable, "-m", "supertrop.cli", *cmd, *d["args"]]


def make_execute(src: str):
    env = dict(os.environ, PYTHONPATH=src)

    def run_child(cmd):
        done = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=120)
        return done.returncode, done.stdout, done.stderr

    def execute(call, req: Request):
        return call("cli." + req.kind, run_child, argv(req))

    return execute


def respond(req: Request, out) -> str:
    return f"{out[0]}\n{out[1]}"


def check(req: Request, out, counts) -> None:
    code, stdout, stderr = out
    d = req.data
    if code != d["code"]:
        counts["cli.exit_mismatch"] += 1
    expect(code == d["code"], f"exit {code}, expected {d['code']}: {stderr.strip()}")
    if d["code"]:
        expect(stdout == "" and stderr.strip(), "error case wrote no message")
        return
    if req.kind == "selfcheck-corpus":
        if d["json"]:
            rows = json.loads(stdout)
            expect(rows and all(r["ok"] for r in rows), "corpus entry failed")
        else:
            expect(_PASSED.match(stdout.strip().splitlines()[-1]) is not None,
                   "corpus summary line missing")
        return
    if not d["json"]:
        if d["text"] is not None:
            expect(stdout.strip() == d["text"], f"text answer {stdout.strip()!r}")
        else:
            expect("bound holds: true" in stdout, "bezout text answer")
        return
    data = json.loads(stdout)
    if req.kind == "canon":
        expect(poly_from_json(data) == parse_poly(d["text"]), "canon --json answer")
    for key, want in (d["fields"] or {}).items():
        expect(data.get(key) == want, f"--json field {key}: {data.get(key)!r}")


def shape(pool: list[Request]) -> dict:
    subs: dict[str, int] = {}
    for req in pool:
        subs[req.kind] = subs.get(req.kind, 0) + 1
    n = len(pool)
    return {"children": n, "subcommands": subs,
            "json_share": round(sum(r.data["json"] for r in pool) / n, 3),
            "error_share": round(sum(r.data["code"] != 0 for r in pool) / n, 3),
            "degree_histogram": {}, "ghost_share": None,
            "large_denominator_share": 0.0,
            "malformed_share": round(sum(r.data["code"] == 1 for r in pool) / n, 3)}


def workload(src: str) -> Workload:
    return Workload(build, make_execute(src), respond, check, shape)

