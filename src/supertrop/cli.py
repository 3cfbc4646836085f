"""Command line front end.

One subcommand per library operation, text or JSON output, polynomials
given inline or as `-` for stdin.  Exit codes: 0 success, 1 parse error,
2 domain error (an operation rejected its input), 3 self-check failure.
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
from .intervals import IntervalSet, RootSet
from .parse import ParseError, parse_bipoly, parse_poly, poly_to_json
from .poly import canonical_full, tangible_roots
from .resultant import DEFAULT_METHOD, METHODS, decide


def _text(arg: str) -> str:
    return sys.stdin.read() if arg == "-" else arg


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"malformed rational {text!r}", 0)


def _endpoint_json(x) -> str:
    return str(x) if isinstance(x, Fraction) else ("-inf" if x < 0 else "inf")


def _intervals_json(s: IntervalSet) -> list[list[str]]:
    return [[_endpoint_json(lo), _endpoint_json(hi)] for lo, hi in s.intervals]


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
    payload = {"intervals": _intervals_json(roots.intervals),
               "at_bottom": roots.at_bottom}
    return _emit(args, str(roots), payload)


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
    value = METHODS[args.method](f, g)
    return _emit(args, str(value), {"resultant": str(value)})


def _common_json(common: RootSet) -> dict:
    return {"intervals": _intervals_json(common.intervals),
            "at_bottom": common.at_bottom}


def _cmd_relprime(args) -> int:
    rep = decide(parse_poly(_text(args.f)), parse_poly(_text(args.g)))
    if rep.relatively_prime:
        text = "relatively prime"
    else:
        text = f"not relatively prime; common root {rep.witness}"
    payload = {"relatively_prime": rep.relatively_prime,
               "resultant": str(rep.resultant),
               "witness": None if rep.witness is None else str(rep.witness),
               "common": _common_json(rep.common)}
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
        for name, fn in checks.CHECKS:
            try:
                count = fn()
                results.append((name, True, f"{count} cases"))
            except AssertionError as exc:
                results.append((name, False, str(exc)))
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--method", choices=sorted(METHODS),
                   default=DEFAULT_METHOD)
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
    p.add_argument("--window", help="xlo,xhi,ylo,yhi (default -10,10,-10,10)")
    p.add_argument("--step", help="grid step, a positive rational")
    p.add_argument("--csv", help="write sampled common roots to this file")
    p = cmd("selfcheck", _cmd_selfcheck,
            "run the example corpus and the property suite")
    p.add_argument("--only", choices=["all", "corpus", "properties"],
                   default="all")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        code = 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        _quiet_stdout()
    return code


if __name__ == "__main__":
    sys.exit(main())
