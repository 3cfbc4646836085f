"""Command line front end.

One subcommand per library operation, text or JSON output, polynomials
given inline or as `-` for stdin.  Exit codes: 0 success, 1 parse error
(a command line that does not parse included), 2 domain error (an
operation rejected its input, a file it was given cannot be written, or
the work ran out of memory or stack), 3 self-check failure or a failed
runtime cross-check.  Under `--json` a failure is an object on stdout,
`{"error": {"kind", "message", "position"}}`, with the same exit code; a
command line that does not parse is one too when `--json` comes before
any `--`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .bipoly import DEFAULT_STEP, DEFAULT_WINDOW, bezout_report
from .divide import divides_linear, verify_division
from .factor import factor_min_ghosts
from .intervals import RootSet, _fmt_endpoint
from .element import _read_rational
from .parse import ParseError, parse_bipoly, parse_poly, poly_to_json
from .poly import canonical_full, tangible_roots
from .resultant import decide, resultant, resultant_nu


def _text(arg: str) -> str:
    return sys.stdin.read() if arg == "-" else arg


def _rational(text: str) -> Fraction:
    # The grammar's rational: no decimals or exponents, which could ask
    # Fraction for a power of ten with millions of digits.
    try:
        value = _read_rational(text.strip())
    except ValueError:
        raise ParseError("number too long", 0) from None
    if value is None:
        raise ParseError(f"malformed rational {text!r}", 0)
    return value


def _root_set_json(roots: RootSet) -> dict:
    return {"intervals": [[_fmt_endpoint(lo), _fmt_endpoint(hi)]
                          for lo, hi in roots.intervals],
            "at_bottom": roots.at_bottom}


def _quiet_stdout() -> None:
    # A reader that quit early (`| head -1`) closed stdout.  Point it at
    # devnull, as the Python docs advise for SIGPIPE, so that neither the
    # rest of the output nor the flush at exit raises again.
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _print(text: str) -> None:
    try:
        print(text)
    except BrokenPipeError:
        _quiet_stdout()


def _emit(args, text: str, payload: dict) -> int:
    _print(json.dumps(payload, indent=2) if args.json else text)
    return 0


def _cmd_canon(args) -> int:
    f = parse_poly(_text(args.poly))
    out = f if f.is_zero else canonical_full(f).to_poly()
    return _emit(args, str(out), poly_to_json(out))


def _cmd_roots(args) -> int:
    roots = tangible_roots(parse_poly(_text(args.poly)))
    return _emit(args, str(roots), _root_set_json(roots))


def _cmd_factor(args) -> int:
    fact = factor_min_ghosts(parse_poly(_text(args.poly)))
    payload = {
        "lead": str(fact.lead),
        "power": fact.power,
        "left_ghost": None if fact.left_ghost is None else str(fact.left_ghost),
        "right_ghost": None if fact.right_ghost is None else str(fact.right_ghost),
        "linears": [[str(a), m] for a, m in fact.linears],
        "quadratics": [[str(b), str(c), m] for b, c, m in fact.quadratics],
        "text": str(fact),
    }
    return _emit(args, str(fact), payload)


def _cmd_resultant(args) -> int:
    f = parse_poly(_text(args.f))
    g = parse_poly(_text(args.g))
    value = (resultant_nu if args.method == "nu" else resultant)(f, g)
    return _emit(args, str(value), {"resultant": str(value)})


def _cmd_relprime(args) -> int:
    rep = decide(parse_poly(_text(args.f)), parse_poly(_text(args.g)))
    if rep.relatively_prime:
        text = "relatively prime"
    else:
        text = f"not relatively prime; common root {rep.witness}"
    payload = {"relatively_prime": rep.relatively_prime,
               "resultant": str(rep.resultant),
               "witness": None if rep.witness is None else str(rep.witness),
               "common": _root_set_json(rep.common)}
    return _emit(args, text, payload)


def _cmd_divides(args) -> int:
    f = parse_poly(_text(args.poly))
    witness = divides_linear(f, _rational(args.point))
    if witness is None:
        return _emit(args, "no", {"divides": False, "q": None,
                                  "ghost_sum": None})
    payload = {"divides": True, "q": str(witness.q),
               "ghost_sum": str(witness.ghost_sum)}
    return _emit(args, str(witness.q), payload)


def _cmd_verify_division(args) -> int:
    ok = verify_division(parse_poly(_text(args.f)), parse_poly(_text(args.g)),
                         parse_poly(_text(args.q)))
    return _emit(args, "true" if ok else "false", {"valid": ok})


def _parse_window(text: str) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 4:
        raise ParseError("window must be four comma-separated rationals", 0)
    a, b, c, d = (_rational(p) for p in parts)
    return a, b, c, d


def _cmd_bezout(args) -> int:
    f = parse_bipoly(_text(args.f))
    g = parse_bipoly(_text(args.g))
    window = _parse_window(args.window) if args.window else DEFAULT_WINDOW
    step = _rational(args.step) if args.step else DEFAULT_STEP
    rep = bezout_report(f, g, window, step)
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write("x,y\n")
            for x, y in rep.hits:
                fh.write(f"{x},{y}\n")
    text = "\n".join([
        f"degrees: m={rep.m} n={rep.n}, bound {rep.bound}",
        f"hits: {len(rep.hits)}",
        f"components: {rep.component_count} (EXPERIMENTAL)",
        f"ordinary: {rep.ordinary_count}",
        f"bound holds: {'true' if rep.bound_holds else 'false'}",
    ])
    payload = {
        "m": rep.m, "n": rep.n, "bound": rep.bound,
        "hit_count": len(rep.hits),
        "hits": [[str(x), str(y)] for x, y in rep.hits],
        "component_count": rep.component_count,
        "component_count_experimental": True,
        "ordinary_count": rep.ordinary_count,
        "bound_holds": rep.bound_holds,
        "window": [str(w) for w in rep.window],
        "step": str(rep.step),
    }
    return _emit(args, text, payload)


def _cmd_selfcheck(args) -> int:
    # Only this command needs the corpus and the property suite.
    from . import checks

    results: list[tuple[str, bool, str]] = []
    if args.only in ("all", "corpus"):
        results.extend(checks.run_corpus())
    if args.only in ("all", "properties"):
        results.extend(checks.outcome(name, lambda: f"{fn()} cases")
                       for name, fn in checks.CHECKS)
    failed = [r for r in results if not r[1]]
    if args.json:
        _print(json.dumps([{"name": n, "ok": ok, "detail": d}
                           for n, ok, d in results], indent=2))
    else:
        for name, ok, detail in results:
            mark = "ok" if ok else "FAIL"
            _print(f"{mark:4s} {name}" + (f"  [{detail}]" if detail else ""))
        _print(f"{len(results) - len(failed)}/{len(results)} passed")
    return 3 if failed else 0


class _Parser(argparse.ArgumentParser):
    # With json_errors set, a usage error is raised for main to report
    # like any other parse error; otherwise argparse prints it and exits.
    def error(self, message: str):
        if self.json_errors:
            raise argparse.ArgumentError(None, message)
        super().error(message)


def _build_parser(json_errors: bool) -> argparse.ArgumentParser:
    parser = _Parser(
        prog="supertrop",
        description="Exact supertropical polynomial calculator.",
        epilog="Arguments that begin with '-' (for example the zero "
               "polynomial -inf) must follow a '--' separator or be piped "
               "to stdin via '-'.")
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, func, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of text")
        p.set_defaults(func=func)
        return p

    p = cmd("canon", _cmd_canon, "canonical full form of a polynomial")
    p.add_argument("poly")
    p = cmd("roots", _cmd_roots, "tangible root set")
    p.add_argument("poly")
    p = cmd("factor", _cmd_factor, "factorization with minimal ghosts")
    p.add_argument("poly")
    p = cmd("resultant", _cmd_resultant, "resultant of two polynomials")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--method", choices=["assignment", "nu"],
                   default="assignment",
                   help="assignment (the default) prints the resultant, nu "
                   "its ghost value")
    p = cmd("relprime", _cmd_relprime, "relative primeness decision")
    p.add_argument("f")
    p.add_argument("g")
    p = cmd("divides", _cmd_divides,
            "witness that x + a divides the polynomial")
    p.add_argument("poly")
    p.add_argument("point")
    p = cmd("verify-division", _cmd_verify_division,
            "check a tangible division witness")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("q")
    p = cmd("bezout", _cmd_bezout, "grid probe of common roots of two "
            "polynomials in x and y")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--window", help="xlo,xhi,ylo,yhi, written with '=' as in "
                   "--window=-10,10,-10,10 (the default) when it begins "
                   "with '-'")
    p.add_argument("--step", help="grid step, a positive rational")
    p.add_argument("--csv", help="write sampled common roots to this file")
    p = cmd("selfcheck", _cmd_selfcheck,
            "run the example corpus and the property suite")
    p.add_argument("--only", choices=["all", "corpus", "properties"],
                   default="all")
    for p in (parser, *sub.choices.values()):
        p.json_errors = json_errors
    return parser


_LABELS = {"parse": "parse error", "domain": "error",
           "check": "internal check failed"}


def _fail(args, kind: str, exc: Exception) -> None:
    # Under --json the error is an object on stdout; otherwise a line on
    # stderr that starts with the kind's label.
    if args.json:
        pos = exc.pos if isinstance(exc, ParseError) else None
        _print(json.dumps({"error": {"kind": kind, "message": str(exc),
                                     "position": pos}}, indent=2))
    else:
        print(f"{_LABELS[kind]}: {exc}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # A --json before any '--' asks for JSON errors, a usage error included.
    head = argv[:argv.index("--")] if "--" in argv else argv
    args = argparse.Namespace(json="--json" in head)
    try:
        args = _build_parser(args.json).parse_args(argv)
        code = args.func(args)
    except SystemExit as exc:
        # Only argparse exits: 0 after --help, 2 after a usage error it
        # has reported.  A command line that does not parse is a parse error.
        code = 1 if exc.code else 0
    except (ParseError, argparse.ArgumentError) as exc:
        _fail(args, "parse", exc)
        code = 1
    except (ValueError, OSError) as exc:  # OSError: an unwritable --csv
        _fail(args, "domain", exc)
        code = 2
    except (MemoryError, RecursionError) as exc:
        # The input asks for more memory or stack than there is: a domain
        # error, as a budget on the input would reject it before the work.
        # A MemoryError usually has no message.
        _fail(args, "domain", exc if str(exc) else
              ValueError(f"out of resources ({type(exc).__name__})"))
        code = 2
    except (AssertionError, ArithmeticError) as exc:
        # A runtime cross-check of the library failed: a bug, not bad input.
        _fail(args, "check", exc)
        code = 3
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _quiet_stdout()
    return code


if __name__ == "__main__":
    sys.exit(main())
