"""Set-up probe: the cost of a fresh interpreter's first useful call.

    python3 perfbench/probe.py <workload>

Times ``import supertrop`` (``supertrop.cli`` for cli_pinned) and then the
first call of every public function the workload uses, on one tiny input,
and prints one JSON line: ``{"import_s": ..., "setup_s": ...}``.  Lazy
imports, such as numpy and scipy behind the assignment route, land in
set-up.  run.py starts this several times per run and reports the median.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter


def first_calls(workload: str) -> dict[str, float]:
    """Call each function the workload uses once; return seconds per call."""
    import supertrop as st

    times: dict[str, float] = {}

    def first(name, fn, *args):
        start = perf_counter()
        out = fn(*args)
        times[name] = perf_counter() - start
        return out

    if workload == "cli_pinned":
        from supertrop.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            for cmd in (["canon", "x + 1"], ["roots", "x + 1"], ["factor", "x + 1"],
                        ["resultant", "x + 1", "x + 2"], ["relprime", "x + 1", "x + 2"],
                        ["divides", "x + 1", "1"],
                        ["verify-division", "x + 1", "x + 1", "0"],
                        ["bezout", "x + y", "x + 1", "--window=-1,1,-1,1",
                         "--step", "1"],
                        ["selfcheck", "--only", "corpus"]):
                first("cli." + cmd[0], main, cmd)
        return times
    if workload == "bezout_grid":
        f = first("parse.bipoly", st.parse_bipoly, "x + y + 1")
        g = first("parse.bipoly", st.parse_bipoly, "x + 2*y + 0")
        window = (-1, 1, -1, 1)
        first("bipoly.scan", st.common_roots_sample, f, g, window, 1)
        first("bipoly.report", st.bezout_report, f, g, window, 1)
        first("bipoly.elim", st.resultant_in_second, f, g)
        first("bipoly.specialize", f.specialize_x, st.tangible(0))
        return times
    f = first("parse.poly", st.parse_poly, "x^2 + 3v*x + 2")
    g = first("parse.poly", st.parse_poly, "x + 1")
    first("resultant.dp", st.resultant, f, g)
    first("resultant.decide", st.decide, f, g)
    if workload == "resultant_sweep":
        first("resultant.nu", st.resultant_nu, f, g)
        first("resultant.assignment", st.resultant_nu_assignment, f, g)
        return times
    first("parse.element", st.parse_element, "1 + 2v")
    first("element.eval", lambda: st.Element.parse("1") * st.Element.parse("2v"))
    first("poly.canonical_full", st.canonical_full, f)
    first("poly.tangible_roots", st.tangible_roots, f)
    fact = first("factor.factor_min_ghosts", st.factor_min_ghosts, f)
    first("factor.expand", st.expand, fact)
    first("divide.divides_linear", st.divides_linear, f, 1)
    first("divide.verify_division", st.verify_division, f, g, g)
    first("parse.json", st.poly_from_json, st.poly_to_json(f))
    first("poly.e_equiv", st.e_equiv, f, g)
    return times


def main() -> int:
    workload = sys.argv[1]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    start = perf_counter()
    import supertrop  # noqa: F401
    if workload == "cli_pinned":
        import supertrop.cli  # noqa: F401
    imported = perf_counter()
    first_calls(workload)
    done = perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
