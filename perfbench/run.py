"""Benchmark for supertrop: seeded workloads, checked outputs, traced layers.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed 1 --seconds 2 --short

Run from the root of a checkout; the library is imported from ``src/``.
One run of a workload:

1. starts ``probe.py`` in seven fresh interpreters and reports the median
   set-up time (import plus the first call of each public function the
   workload uses, on a tiny input);
2. draws one pass of requests from the seeded generator in ``gen.py``;
3. warms up with the same first calls, then runs passes over the requests
   in a closed loop with one client until about ``--seconds`` seconds of
   request time are measured.  The first pass checks every output against
   independent oracles and feeds the digest; later passes must repeat the
   first pass's responses exactly.
4. scales every timing by the machine's speed, calibrated between
   requests at least every 0.1 s (see ``speed.py``; CLI requests by the
   speed of starting a bare interpreter), and takes each
   request's median scaled time across the passes as its latency.  Shared
   machines change speed in stretches of a tenth of a second to minutes;
   scaling removes most of that and the median removes single slow passes.
   ``ops_per_s`` is the number of requests over the sum of these latencies.
   Set-up times are scaled by the median of the calibrations taken around
   the fresh interpreters, per-layer times by the run's median calibration.

The benchmark and every child it starts run on one CPU, one at a time.

With ``--trace 0`` the last line carries the end-to-end metrics.  With
``--trace 1`` the run alternates untraced and traced passes, writes the
spans to ``perfbench/out/``, and the last line carries the per-layer
metrics.  Per-layer times and counts are per pass over the
requests, so they compare across commits regardless of pass count.
``--short`` uses tiny passes and one probe, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from spans import plain_call
from speed import (REF_CAL_S, REF_START_S, Speedometer, calibrate, calibrate_start,
                   pin_to_one_cpu)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ["univariate_mix", "resultant_sweep", "bezout_grid", "cli_pinned"]

END_TO_END = [("setup_s", "s"), ("ops_per_s", "1/s"), ("latency_p50_ms", "ms"),
              ("latency_tail_ms", "ms"), ("peak_rss_mb", "MB")]

CLI_SUBS = ["canon", "roots", "factor", "resultant", "relprime", "divides",
            "verify-division", "bezout", "selfcheck-corpus"]
DP_DEGREES = range(4, 11)

PER_LAYER = (
    [("parse.poly.busy_s", "s"), ("parse.poly.calls", "count"),
     ("parse.bipoly.busy_s", "s"), ("parse.errors", "count"),
     ("parse.json.busy_s", "s"), ("element.busy_s", "s"),
     ("poly.canonical_full.busy_s", "s"), ("poly.canonical_full.calls", "count"),
     ("poly.tangible_roots.busy_s", "s"), ("poly.e_equiv.busy_s", "s"),
     ("factor.factor_min_ghosts.busy_s", "s"), ("factor.expand.busy_s", "s"),
     ("divide.divides_linear.busy_s", "s"), ("divide.verify_division.busy_s", "s"),
     ("divide.witness_ratio", "ratio"),
     ("resultant.dp.busy_s", "s")]
    + [(f"resultant.dp.d{d}.p50_ms", "ms") for d in DP_DEGREES]
    + [("resultant.dp.states_bound", "count"), ("resultant.decide.busy_s", "s"),
       ("resultant.nu.busy_s", "s"), ("resultant.assignment.busy_s", "s"),
       ("resultant.ghost_ratio", "ratio"), ("resultant.assignment.first_call_s", "s"),
       ("resultant.assignment.overflow", "count"),
       ("bipoly.scan.busy_s", "s"), ("bipoly.cluster.busy_s", "s"),
       ("bipoly.grid_points", "count"), ("bipoly.hits", "count"),
       ("bipoly.hit_ratio", "ratio"), ("bipoly.ordinary", "count"),
       ("bipoly.dense_share", "ratio"), ("bipoly.elim.busy_s", "s"),
       ("bipoly.specialize.busy_s", "s"), ("cli.import_s", "s")]
    + [(f"cli.{sub}.p50_ms", "ms") for sub in CLI_SUBS]
    + [("cli.exit_mismatch", "count"), ("checks.run_corpus.busy_s", "s"),
       ("setup.import_s", "s"), ("trace.overhead_ratio", "ratio")])

NOTES = {
    "resultant.dp.states_bound": "computed: sum of 2^(m+n) over the DP runs of "
                                 "resultant() and decide() in one pass",
    "bipoly.cluster.busy_s": "derived: bezout_report time minus common_roots_sample "
                             "time on the same pairs",
    "bipoly.grid_points": "computed: base grid points of the window at each pair's "
                          "step, before the half-step refinement",
    "trace.overhead_ratio": "traced ops_per_s over untraced ops_per_s, from "
                            "alternating passes",
}

PROBES, PROBES_SHORT = 7, 1
WALL_LIMIT_S = 100.0


class Run:
    """Passes over one pool of requests, with checking and accounting."""

    def __init__(self, wl, pool, speed: Speedometer | None = None):
        self.wl, self.pool = wl, pool
        self.first: list[str | None] = [None] * len(pool)
        self.bad: set[int] = set()
        self.digest = hashlib.sha256()
        self.counts: Counter = Counter()
        self.failures: list[str] = []
        self.attempted = self.failed = self.passes = 0
        self.lat: list[list[float]] = [[] for _ in pool]
        self.lat_traced: list[list[float]] = [[] for _ in pool]
        self.speed = speed or Speedometer()
        self.pass_busy: list[float] = []

    def one_pass(self, tracer=None) -> float:
        """One pass over the pool; returns the request time it took."""
        wl, first_pass = self.wl, self.passes == 0
        call = plain_call if tracer is None else tracer.call
        lat = self.lat if tracer is None else self.lat_traced
        pass_busy = 0.0
        for i, req in enumerate(self.pool):
            error = None
            if tracer is not None:
                tracer.request = self.passes * len(self.pool) + i
            start = perf_counter()
            try:
                if tracer is None:
                    out = wl.execute(call, req)
                else:
                    out = tracer.call("request." + req.kind, wl.execute, call, req)
            except Exception as exc:  # any raise is a failed request; go on
                out, error = None, exc
            elapsed = perf_counter() - start
            pass_busy += elapsed
            self.speed.record(lat[i], elapsed)
            self.speed.tick()
            self.attempted += 1
            problem = None
            if error is not None:
                resp = problem = f"raised {type(error).__name__}: {error}"
            else:
                resp = wl.respond(req, out)
            if first_pass:
                self.first[i] = resp
                self.digest.update(resp.encode() + b"\n")
                if problem is None:
                    problem = self._check(req, out)
                if problem is not None:
                    self.bad.add(i)
            elif i in self.bad:
                problem = "failed in the first pass"
            elif resp != self.first[i]:
                problem = f"response differs from the first pass: {resp[:200]!r}"
            if problem is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"request {i} ({req.kind}): {problem}")
        self.speed.tick(force=True)
        self.passes += 1
        return pass_busy

    def latencies(self, traced: bool = False) -> list[float]:
        """Each request's median scaled latency across its passes."""
        lat = self.lat_traced if traced else self.lat
        return [statistics.median(v) for v in lat]

    def _check(self, req, out) -> str | None:
        try:
            self.wl.check(req, out, self.counts)
        except Exception as exc:  # an oracle mismatch or a raise inside one
            return f"{type(exc).__name__}: {exc}"
        return None

    def run_for(self, seconds: float, started: float, tracer=None) -> None:
        """Whole passes until about `seconds` of untraced request time are measured.

        With a tracer, each untraced pass is followed by a traced one, so
        that both see the same stretches of the machine.
        """
        while True:
            self.pass_busy.append(self.one_pass())
            if tracer is not None:
                self.one_pass(tracer)
            busy = sum(self.pass_busy)
            if (busy + busy / len(self.pass_busy) / 2 >= seconds
                    or perf_counter() - started > WALL_LIMIT_S):
                return


def tail_percentile(pass_size: int) -> float:
    """Highest percentile with at least ten of the pass's requests beyond it."""
    if pass_size <= 20:
        return 50.0
    return math.floor(1000 * (1 - 10 / pass_size)) / 10


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(math.ceil(pct / 100 * len(sorted_values)) - 1, 0)
    return sorted_values[k]


def setup_probes(workload: str, count: int) -> tuple[dict, dict]:
    """Median set-up times of `count` fresh interpreters, scaled and unscaled.

    The scale comes from the median of the calibrations taken before and
    after each probe: one calibration is too noisy to scale one probe by.
    """
    samples, cals = [], []
    for _ in range(count):
        cals.append(calibrate())
        done = subprocess.run([sys.executable, str(HERE / "probe.py"), workload],
                              capture_output=True, text=True, timeout=120, cwd=ROOT)
        cals.append(calibrate())
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
    raw = {k: statistics.median(s[k] for s in samples) for k in samples[0]}
    factor = REF_CAL_S / statistics.median(cals)
    return {k: v * factor for k, v in raw.items()}, raw


def load_workload(name: str):
    if name == "cli_pinned":
        import cli_pinned
        return cli_pinned.workload(str(SRC))
    from workloads import WORKLOADS
    return WORKLOADS[name]


def why(name: str) -> str:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return ""
    return next((w["why"] for w in spec.get("workloads", []) if w["name"] == name), "")


def layer_metrics(name, run, tracer, passes, warm, probes, overhead) -> dict:
    pool = run.pool
    scale = run.speed.scale()

    def durations(span):
        return [(req, d * scale) for req, d in tracer.durations(span)]

    def busy(span):
        return sum(d for _, d in durations(span)) / passes

    def calls(span):
        return len(durations(span)) / passes

    def p50_ms(pairs):
        return 1000 * statistics.median(d for _, d in pairs) if pairs else 0.0

    def ratio(num, den):
        return run.counts[num] / run.counts[den] if run.counts[den] else 0.0

    c = run.counts
    m = {
        "parse.poly.busy_s": busy("parse.poly"),
        "parse.poly.calls": calls("parse.poly"),
        "parse.bipoly.busy_s": busy("parse.bipoly"),
        "parse.errors": c["parse.errors"],
        "parse.json.busy_s": busy("parse.json"),
        "element.busy_s": busy("element.eval"),
        "poly.canonical_full.busy_s": busy("poly.canonical_full"),
        "poly.canonical_full.calls": calls("poly.canonical_full"),
        "poly.tangible_roots.busy_s": busy("poly.tangible_roots"),
        "poly.e_equiv.busy_s": busy("poly.e_equiv"),
        "factor.factor_min_ghosts.busy_s": busy("factor.factor_min_ghosts"),
        "factor.expand.busy_s": busy("factor.expand"),
        "divide.divides_linear.busy_s": busy("divide.divides_linear"),
        "divide.verify_division.busy_s": busy("divide.verify_division"),
        "divide.witness_ratio": ratio("divide.witnesses", "divide.attempts"),
        "resultant.dp.busy_s": busy("resultant.dp"),
    }
    dp = durations("resultant.dp")
    for d in DP_DEGREES:
        m[f"resultant.dp.d{d}.p50_ms"] = p50_ms(
            [x for x in dp if pool[x[0] % len(pool)].deg == d])
    m.update({
        "resultant.dp.states_bound": c["resultant.dp.states_bound"],
        "resultant.decide.busy_s": busy("resultant.decide"),
        "resultant.nu.busy_s": busy("resultant.nu"),
        "resultant.assignment.busy_s": busy("resultant.assignment"),
        "resultant.ghost_ratio": ratio("resultant.ghost", "resultant.pairs"),
        "resultant.assignment.first_call_s": warm.get("resultant.assignment", 0.0) * scale,
        "resultant.assignment.overflow": c["resultant.assignment.overflow"],
        "bipoly.scan.busy_s": busy("bipoly.scan"),
        "bipoly.cluster.busy_s": busy("bipoly.report") - busy("bipoly.scan"),
        "bipoly.grid_points": c["bipoly.grid_points"],
        "bipoly.hits": c["bipoly.hits"],
        "bipoly.hit_ratio": ratio("bipoly.hits", "bipoly.grid_points"),
        "bipoly.ordinary": c["bipoly.ordinary"],
        "bipoly.dense_share": ratio("bipoly.dense", "bipoly.pairs"),
        "bipoly.elim.busy_s": busy("bipoly.elim"),
        "bipoly.specialize.busy_s": busy("bipoly.specialize"),
        "cli.import_s": probes["import_s"] if name == "cli_pinned" else 0.0,
    })
    for sub in CLI_SUBS:
        m[f"cli.{sub}.p50_ms"] = p50_ms(durations("cli." + sub))
    m.update({
        "cli.exit_mismatch": c["cli.exit_mismatch"],
        "checks.run_corpus.busy_s": busy("checks.run_corpus"),
        "setup.import_s": probes["import_s"],
        "trace.overhead_ratio": overhead,
    })
    return m


def run_workload(name: str, seed: int, seconds: float, trace: bool, short: bool) -> int:
    started = perf_counter()
    probe_count = PROBES_SHORT if short else PROBES
    probes, raw_probes = setup_probes(name, probe_count)

    import gen
    import probe
    from spans import Tracer

    wl = load_workload(name)
    pool = wl.build(gen.Gen(seed), short, trace)
    shape = wl.shape(pool)

    if name == "cli_pinned":
        warm = {}
        for req in pool[:2]:
            wl.execute(plain_call, req)
    else:
        warm = probe.first_calls(name)
    gc.collect()

    run = Run(wl, pool, Speedometer(calibrate_start, REF_START_S)
              if name == "cli_pinned" else None)
    tracer = Tracer() if trace else None
    run.run_for(seconds / 2 if trace else seconds, started, tracer)
    lat = sorted(run.latencies())
    pct = tail_percentile(len(pool))
    passes = len(run.pass_busy)
    if trace:
        if name == "cli_pinned":
            from supertrop.checks import run_corpus
            for _ in range(passes):
                tracer.call("checks.run_corpus", run_corpus)

    print(f"# perfbench workload={name} seed={seed} trace={int(trace)}"
          f"{' short' if short else ''}")
    print(f"# why: {why(name)}")
    print("# input " + json.dumps(shape, sort_keys=True))
    print(f"# digest {run.digest.hexdigest()}")
    print(f"# requests attempted={run.attempted} failed={run.failed} "
          f"failed_ratio={run.failed / run.attempted:.6g} passes={run.passes} "
          f"pass_size={len(pool)}")
    print("# pass_busy_s " + " ".join(f"{b:.4f}" for b in run.pass_busy))
    print("# observed per pass " + json.dumps(dict(sorted(run.counts.items()))))
    overflow = run.counts["resultant.assignment.overflow"]
    if overflow:
        print(f"# known defect: resultant_nu_assignment raised OverflowError on "
              f"{overflow} of {run.counts['resultant.pairs']} pairs per pass "
              f"(int64 scaling); counted in resultant.assignment.overflow")
    for line in run.failures:
        print(f"# failure {line}")

    if trace:
        metrics = layer_metrics(name, run, tracer, passes, warm, probes,
                                sum(run.latencies()) / sum(run.latencies(True)))
        units = dict(PER_LAYER)
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{name}-seed{seed}.json")
        print(f"# traced passes={passes}; per-layer times and counts are per pass; "
              f"spans written to perfbench/out/trace-{name}-seed{seed}.json")
        for span, row in sorted(tracer.summary().items()):
            print(f"# span {span} count={row['count']} total_s={row['total_s']:.6f} "
                  f"self_s={row['self_s']:.6f}")
    else:
        rss = resource.getrusage(resource.RUSAGE_CHILDREN if name == "cli_pinned"
                                 else resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": probes["setup_s"],
            "ops_per_s": len(lat) / sum(lat),
            "latency_p50_ms": 1000 * statistics.median(lat),
            "latency_tail_ms": 1000 * nearest_rank(lat, pct),
            "peak_rss_mb": rss / 1024,
        }
        units = dict(END_TO_END)
        print(f"# each request's median scaled latency over {passes} passes "
              f"({passes * len(lat)} samples): latency_p50_ms is p50 and "
              f"latency_tail_ms is p{pct:g} of these {len(lat)} latencies (at least "
              f"10 beyond it); ops_per_s is {len(lat)} requests over their summed "
              f"latency")
        print(f"# machine speed: {run.speed.cal.__name__} median "
              f"{statistics.median(run.speed.cals) * 1e3:.4f} ms over "
              f"{len(run.speed.cals)} calibrations (reference {run.speed.ref * 1e3:g} ms)")
        print(f"# setup_s is the median of {probe_count} fresh interpreters, scaled "
              f"(unscaled {raw_probes['setup_s']:.4f} s); "
              f"peak_rss_mb is of the {'CLI children' if name == 'cli_pinned' else 'worker'}")

    for key, value in metrics.items():
        note = f"  ({NOTES[key]})" if key in NOTES else ""
        print(f"{key} = {value!r} {units[key]}{note}")
    print(json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--short"] if args.short else [])
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--short", action="store_true",
                        help="tiny passes and one set-up probe, for tests")
    args = parser.parse_args(argv)
    if not (SRC / "supertrop" / "__init__.py").is_file():
        print(f"error: no supertrop sources under {SRC}", file=sys.stderr)
        return 2
    # Fresh interpreters (set-up probes, CLI children) import supertrop from
    # bytecode, as an installed package does.  A checkout holds none, and
    # the environment may forbid Python to write it, so compile it here, in a
    # child so that compiling does not count in the worker's peak memory.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)],
                   check=True, capture_output=True, timeout=120)
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.short)


if __name__ == "__main__":
    sys.exit(main())
