"""Tests of the benchmark itself, using its short-run mode.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run as bench  # noqa: E402
from supertrop import tangible  # noqa: E402
from workloads import Workload  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_short(workload: str, trace: int, seed: int = 3) -> list[str]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", "0.5", "--trace", str(trace), "--short"],
        capture_output=True, text=True, timeout=300, cwd=ROOT)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    lines = run_short(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert ({k: v["unit"] for k, v in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})
    for m in declared:
        line = next(x for x in lines if x.startswith(m["name"] + " = "))
        assert line.split()[3] == m["unit"]


def _corrupted(wl: Workload, corrupt) -> Workload:
    return Workload(wl.build, lambda call, req: corrupt(wl.execute(call, req)),
                    wl.respond, wl.check, wl.shape)


@pytest.mark.parametrize("workload,kind,corrupt", [
    ("univariate_mix", "resultant", lambda out: out * tangible(1)),
    ("univariate_mix", "verify", lambda out: not out),
    ("resultant_sweep", "pair", lambda out: (out[0] * tangible(1),) + out[1:]),
    ("bezout_grid", "pair",
     lambda out: out[:2] + (out[2] + [(Fraction(99), Fraction(99))],) + out[3:]),
    ("cli_pinned", None, lambda out: (out[0] + 1,) + out[1:]),
])
def test_corrupted_output_is_counted_as_a_failure(workload, kind, corrupt):
    wl = bench.load_workload(workload)
    pool = [r for r in wl.build(gen.Gen(5), True, False) if kind in (None, r.kind)][:2]
    assert pool
    clean = bench.Run(wl, pool)
    clean.one_pass()
    assert clean.failed == 0, clean.failures
    bad = bench.Run(_corrupted(wl, corrupt), pool)
    bad.one_pass()
    assert bad.failed == len(pool)


def test_a_later_pass_must_repeat_the_first():
    wl = bench.load_workload("univariate_mix")
    pool = wl.build(gen.Gen(5), True, False)[:20]
    run = bench.Run(wl, pool)
    run.one_pass()
    run.wl = Workload(wl.build, wl.execute, lambda req, out: "changed", wl.check, wl.shape)
    run.one_pass()
    assert run.failed == len(pool)


def _digest(lines: list[str]) -> str:
    return next(x for x in lines if x.startswith("# digest ")).split()[-1]


@pytest.mark.parametrize("workload", ["univariate_mix", "resultant_sweep", "bezout_grid"])
def test_same_seed_gives_the_same_digest(workload):
    first, second = run_short(workload, 0, seed=11), run_short(workload, 0, seed=11)
    assert _digest(first) == _digest(second)
    assert _digest(run_short(workload, 0, seed=12)) != _digest(first)
