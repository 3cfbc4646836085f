"""Reproduce the baseline rows of ROADMAP.md from the benchmark's own code.

    python3 perfbench/baseline.py [--skip-bezout]

Prints, one per line:

* the default DP resultant of two monic full polynomials at equal degrees
  4+4 to 10+10 (median of three calls, one call at 9+9 and 10+10), and
  ``resultant_nu`` on the same pairs;
* the first call of ``resultant_nu_assignment`` in a fresh interpreter;
* cold start: ``import supertrop`` in a fresh interpreter, and the wall
  time of ``python -m supertrop.cli canon x``;
* the Bezout split on the 100 pairs of ``check_bezout_bound`` (seed
  42010): time in ``common_roots_sample`` (the grid scan) against time in
  ``bezout_report`` (scan plus clustering), with no profiler attached.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

FRESH = """
import sys, time
sys.path.insert(0, {src!r})
t = time.perf_counter()
import supertrop as st
imported = time.perf_counter()
f, g = st.parse_poly("x^3 + 2*x^2 + 1*x + 0"), st.parse_poly("x^3 + 3*x^2 + 2*x + 0")
called = time.perf_counter()
st.resultant_nu_assignment(f, g)
print(imported - t, time.perf_counter() - called)
"""


def timed(fn, *args, repeat: int = 3) -> float:
    times = []
    for _ in range(repeat):
        start = perf_counter()
        fn(*args)
        times.append(perf_counter() - start)
    return statistics.median(times)


def main() -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import gen as G
    import supertrop as st

    g = G.Gen(2009)
    for d in range(4, 11):
        f, h = g.full_pair(d, d, share=d % 2 == 0)
        fp = st.parse_poly(G.poly_text(G.full_coeffs(f.corners, f.flags, 0), g.rng))
        hp = st.parse_poly(G.poly_text(G.full_coeffs(h.corners, h.flags, 0), g.rng))
        dp = timed(st.resultant, fp, hp, repeat=1 if d >= 9 else 3)
        nu = timed(st.resultant_nu, fp, hp)
        print(f"resultant dp {d}+{d}: {1000 * dp:.1f} ms; resultant_nu: {1000 * nu:.2f} ms")

    imports, firsts = [], []
    for _ in range(3):
        out = subprocess.run([sys.executable, "-c", FRESH.format(src=str(SRC))],
                             capture_output=True, text=True, check=True).stdout.split()
        imports.append(float(out[0]))
        firsts.append(float(out[1]))
    print(f"first resultant_nu_assignment call: {1000 * statistics.median(firsts):.0f} ms")
    print(f"import supertrop (fresh interpreter): {1000 * statistics.median(imports):.0f} ms")
    walls = []
    for _ in range(5):
        start = perf_counter()
        subprocess.run([sys.executable, "-m", "supertrop.cli", "canon", "x"], check=True,
                       capture_output=True, env={"PYTHONPATH": str(SRC)})
        walls.append(perf_counter() - start)
    print(f"CLI cold start (canon x, wall): {1000 * statistics.median(walls):.0f} ms")

    if "--skip-bezout" in sys.argv:
        return 0
    from supertrop.checks import Gen
    gen = Gen(42010)
    scan = report = 0.0
    for _ in range(100):
        fb, gb = gen.bipoly(3), gen.bipoly(3)
        start = perf_counter()
        st.common_roots_sample(fb, gb)
        mid = perf_counter()
        st.bezout_report(fb, gb)
        scan += mid - start
        report += perf_counter() - mid
    print(f"check_bezout_bound pairs (seed 42010): bezout_report {report:.1f} s, "
          f"of which the scan (common_roots_sample) {scan:.1f} s and clustering "
          f"{report - scan:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
