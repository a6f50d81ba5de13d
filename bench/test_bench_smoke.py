"""Smoke test of the benchmark harness with tiny run lengths.

Not part of the tier-1 suite (pytest's testpaths is tests/).  Run with

    python3 -m pytest bench/test_bench_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMINGS = ("_ms", "_s", "overhead_ratio")


def bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def last_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload, trace):
    line = last_line(bench(ROOT, workload, trace))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in line["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed(workload):
    first, second = (last_line(bench(ROOT, workload, 1))["metrics"] for _ in range(2))
    counts = [name for name in first if not name.endswith(TIMINGS)]
    assert counts and all(first[n]["value"] == second[n]["value"] for n in counts)


def test_exit_2_is_a_refusal_only_where_the_kind_may_refuse(tmp_path):
    import run
    from checks import refusal_ok
    from workloads import generate

    class Refuses:
        @staticmethod
        def main(argv):
            return 2

    runner = run.Runner(Refuses, tmp_path, None)
    ops = generate("exact", 7)
    diag = next(op for op in ops if op.kind == "area_diag" and refusal_ok(op))
    glue = next(op for op in ops if op.kind == "area_glue")
    assert not refusal_ok(glue)
    assert runner.run(0, diag).outcome == "domain_error"
    assert runner.run(1, glue).outcome == "check"


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench(tmp_path, "exact", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
