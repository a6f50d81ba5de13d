"""Run every workload over several seeds and summarise across runs.

    python3 bench/suite.py                      # untraced, seeds 1-10
    python3 bench/suite.py --trace 1 --seeds 1-3

Each run is one `bench/run.py` process of BENCHMARK.json's run_seconds,
run one after another, over all three workloads.  For every workload and
metric the table shows the median over runs, its quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median.  Untraced
summaries add error_rate, 1 - ok_rate, read from each run's results file.
The summary is written to bench/results/summary-trace<T>.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
WORKLOADS = ("scan", "exact", "bigops")


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_seconds() -> int:
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900, cwd=BENCH.parent)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    results = json.loads((RESULTS / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    if not trace:
        error = results["metrics"]["error_rate"]
        line["metrics"]["error_rate"] = {"value": error["value"], "unit": error["unit"]}
    line["ops_digest"] = results["ops_digest"]
    return line


def describe(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / med if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "spread": spread, "runs": len(values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = run_seconds()
    seeds = seed_list(args.seeds)
    RESULTS.mkdir(exist_ok=True)
    summary = {"python": platform.python_version(), "seconds": seconds, "seeds": seeds,
               "trace": args.trace, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            line = run_once(workload, seed, seconds, args.trace)
            runs.append(line)
            print(f"{workload} seed {seed}: correct={line['correct']} attempted={line['attempted']} "
                  f"failed={line['failed']}", file=sys.stderr, flush=True)
        table = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            table[name] = {"unit": first["unit"], **describe(values), "values": values}
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "ops_digests": [r["ops_digest"] for r in runs],
            "metrics": table,
        }
        print(f"\n{workload} ({len(runs)} runs, {seconds:g} s each)")
        print(f"  {'metric':44} {'unit':10} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
        for name, row in table.items():
            print(f"  {name:44} {row['unit']:10} {row['median']:12.5g} {row['q1']:12.5g} "
                  f"{row['q3']:12.5g} {row['spread']:8.2%}")
    out = RESULTS / f"summary-trace{args.trace}.json"
    out.write_text(json.dumps(summary, indent=2) + "\n")
    print(f"\nsummary written to {out.relative_to(BENCH.parent)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
