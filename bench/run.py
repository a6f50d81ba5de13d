"""Closed-loop benchmark of the cyclicquad CLI, end to end and per layer.

    python3 bench/run.py --workload scan|exact|bigops --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One client calls
cyclicquad.cli.main(argv) in-process with stdout captured, one operation
after another, on inputs generated from --seed (see workloads.py).  Every
output is checked outside the timed call (see checks.py).

--trace 0 times operations for --seconds and reports the end-to-end
metrics, with every timing scaled by the host's speed (see hostspeed.py);
--trace 1 runs a fixed, seed-determined list of operations once untraced
and once under tracer.Tracer and reports the per-layer metrics.
The last line of stdout is one JSON object; the full record, with medians,
quartiles and sample counts, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from checks import TripleCounts, check, refusal_ok
from hostspeed import HostSpeed
from tracer import Tracer
from workloads import HANGS, MAY_REFUSE, WORKLOADS, Op, generate, triples_up_to

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

END_TO_END = {
    "ok_ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_rate": "fraction",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: values per traced operation, except the two maxima.
# `<span>.calls` and `<span>.self_ms` come from span totals, the rest from
# the tracer's counters or from the harness.
PER_LAYER = {
    "cli.build_parser.self_ms": "ms/op",
    "cli.main.self_ms": "ms/op",
    "cli.output_bytes": "B/op",
    "exactnum.square_free_split.calls": "calls/op",
    "exactnum.square_free_split.self_ms": "ms/op",
    "exactnum.square_free_split.max_input_bits": "bits",
    "exactnum.surd_new.calls": "calls/op",
    "exactnum.surd_new.self_ms": "ms/op",
    "exactnum.surd_sqrt.calls": "calls/op",
    "exactnum.to_exact.calls": "calls/op",
    "exactnum.approx.self_ms": "ms/op",
    "exactnum.render_decimal.calls": "calls/op",
    "exactnum.render_decimal.self_ms": "ms/op",
    "exactnum.incompatible_radicands.raised": "raises/op",
    "exactnum.max_operand_bits": "bits",
    "mensuration.validate.calls": "calls/op",
    "mensuration.validate.self_ms": "ms/op",
    "mensuration.abadha_split.calls": "calls/op",
    "mensuration.abadha_split.self_ms": "ms/op",
    "mensuration.heron_area.calls": "calls/op",
    "mensuration.heron_area.self_ms": "ms/op",
    "mensuration.sutra_area.self_ms": "ms/op",
    "mensuration.area_by_diagonal.self_ms": "ms/op",
    "mensuration.cyclic_diagonal_pair.self_ms": "ms/op",
    "oracle.area_scan.samples": "samples/op",
    "oracle.area_scan.self_ms": "ms/op",
    "oracle.embed.calls": "calls/op",
    "oracle.embed.self_ms": "ms/op",
    "oracle.shoelace_area.self_ms": "ms/op",
    "oracle.concyclic_exact.self_ms": "ms/op",
    "construct.brahmagupta_quad.self_ms": "ms/op",
    "triples.generate_triples.self_ms": "ms/op",
    "triples.hypotenuse_pairs.self_ms": "ms/op",
    "triples.found": "triples/op",
    "manifest.run_manifest.self_ms": "ms/op",
    "manifest.entries_failed": "entries/op",
    "svg.scan_svg.self_ms": "ms/op",
    "svg.bytes": "B/op",
    "ops.failed.domain_error": "fraction",
    "ops.failed.deadline": "fraction",
    "ops.failed.check": "fraction",
    "ops.failed.exception": "fraction",
    "trace.overhead_ratio": "ratio",
}
MAXIMA = {"exactnum.square_free_split.max_input_bits", "exactnum.max_operand_bits"}

# Outcomes.  domain_error (exit 2 where workloads.MAY_REFUSE allows it and
# checks.refusal_ok confirms the input has no exact answer of the requested
# form) and deadline are refusals by the program: they count against ok_rate
# and the latencies.  check (wrong output, any other exit code) and
# exception (a traceback out of main) are wrong results: they make the run
# incorrect.
WRONG = ("check", "exception")
OUTCOMES = ("ok", "domain_error", "deadline") + WRONG

# Cheap commands run once, untimed, before measuring, so that lazy imports
# and first-call costs are paid outside the measurement.
WARMUP = [
    ["reproduce"],
    ["--format", "json", "area", "13", "14", "15"],
    ["area", "40", "75", "68", "51", "--diagonal", "85"],
    ["--format", "svg", "--steps", "3", "scan", "3", "4", "5", "6"],
    ["--format", "json", "--steps", "3", "scan", "3", "4", "5", "6"],
    ["rhombus", "--triple", "3", "4", "5"],
    ["--format", "json", "triples", "25", "--pairs"],
]

SETUP_SPAWNS = 9
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import cyclicquad.cli\n"
    "cyclicquad.cli.build_parser()\n"
    "print(time.perf_counter() - start, cyclicquad.cli.__file__)\n"
)
TRACE_DEADLINE_FACTOR = 20
PROBE_SECONDS = 1.0


class DeadlineExceeded(Exception):
    """Raised into an operation by SIGALRM when it runs past its deadline."""


class Alarm:
    """Per-operation deadline on the main thread via signal.setitimer."""

    def __init__(self):
        self.armed = False
        signal.signal(signal.SIGALRM, self._fire)

    def _fire(self, signum, frame):
        if self.armed:
            self.armed = False
            raise DeadlineExceeded()

    def arm(self, seconds: float):
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, seconds)

    def disarm(self):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)


@dataclass
class Record:
    index: int
    outcome: str
    seconds: float
    output_bytes: int
    detail: str = ""
    at: float = 0.0


class Runner:
    """Executes operations against the imported program and checks them."""

    def __init__(self, cli, outdir: Path, counts: TripleCounts | None):
        self.cli = cli
        self.outdir = outdir
        self.counts = counts
        self.alarm = Alarm()

    def call(self, argv, deadline: float):
        """One timed main() call: (exit code or outcome, seconds, stdout, stderr)."""
        out, err = io.StringIO(), io.StringIO()
        self.alarm.arm(deadline)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                result = self.cli.main(list(argv))
        except DeadlineExceeded:
            result = "deadline"
        except SystemExit as exc:
            result = exc.code
        except Exception as exc:  # a traceback out of main is a measured outcome
            result = "exception"
            err.write(f"{type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - start
            self.alarm.disarm()
        return result, elapsed, out.getvalue(), err.getvalue()

    def run(self, index: int, op: Op, deadline_factor: float = 1.0) -> Record:
        argv = op.argv
        path = None
        if op.out:
            path = self.outdir / f"op{index}.{'txt' if op.fmt == 'text' else op.fmt}"
            argv = ("--out", str(path), *argv)
        at = time.perf_counter()
        result, elapsed, text, err = self.call(argv, op.deadline * deadline_factor)
        if path is not None and path.exists():
            text = path.read_text()
            path.unlink()
        if result in ("deadline", "exception"):
            return Record(index, result, elapsed, len(text), err.strip()[:200], at)
        if result == 2 and op.kind in MAY_REFUSE and refusal_ok(op):
            return Record(index, "domain_error", elapsed, len(text), err.strip()[:200], at)
        reason = f"exit code {result}: {err.strip()[:160]}" if result != 0 else check(op, text, self.counts)
        return Record(index, "check" if reason else "ok", elapsed, len(text), reason or "", at)


def load_program():
    """Import cyclicquad from this checkout's src/, and nowhere else."""
    if not (SRC / "cyclicquad" / "cli.py").is_file():
        raise SystemExit(f"no program source at {SRC / 'cyclicquad'}")
    sys.path.insert(0, str(SRC))
    import cyclicquad
    import cyclicquad.cli

    if Path(cyclicquad.__file__).resolve().parent != SRC / "cyclicquad":
        raise SystemExit(f"imported cyclicquad from {cyclicquad.__file__}, not {SRC}")
    return cyclicquad


def setup_child() -> float:
    """Seconds for `import cyclicquad.cli` plus build_parser() in a fresh
    interpreter, timed inside the child."""
    proc = subprocess.run(
        [sys.executable, "-E", "-s", "-c", SETUP_CODE, str(SRC)],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(f"set-up child failed: {proc.stderr.strip()}")
    seconds, path = proc.stdout.split()
    if Path(path).resolve().parent != SRC / "cyclicquad":
        raise SystemExit(f"set-up child imported {path}")
    return float(seconds)


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; +inf entries (failed operations) sort last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def summary(values: list[float]) -> dict:
    q1, med, q3 = (quantile(values, q) for q in (0.25, 0.5, 0.75))
    return {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1, "samples": len(values)}


def digest(ops: list[Op]) -> str:
    text = "\n".join(" ".join(op.argv) + f" out={int(op.out)}" for op in ops)
    return hashlib.sha256(text.encode()).hexdigest()


def timed_loop(runner: Runner, ops: list[Op], seconds: float, setup: list[tuple[float, float]],
               speed: HostSpeed) -> list[Record]:
    """Closed loop with one client: run operations in order, cycling the
    list if needed, until `seconds` of wall time have passed.  Between
    operations, at SETUP_SPAWNS evenly spaced times, a set-up child is
    timed into `setup` as (start, seconds), so that set-up is sampled
    across the run, and the host-speed kernel is timed whenever due."""
    records = []
    start = time.perf_counter()
    while (elapsed := time.perf_counter() - start) < seconds:
        if speed.due():
            speed.sample()
        if len(setup) < SETUP_SPAWNS and elapsed >= len(setup) * seconds / SETUP_SPAWNS:
            setup.append((time.perf_counter(), setup_child()))
        i = len(records)
        records.append(runner.run(i, ops[i % len(ops)]))
    return records


def probe_max_operand_bits(runner: Runner, package, ops: list[Op]) -> dict:
    """Largest exact operand, traced over the first operations for about
    PROBE_SECONDS; untraced runs record it without slowing their loop."""
    tracer = Tracer(package)
    start = time.perf_counter()
    n = 0
    with tracer:
        while n == 0 or (time.perf_counter() - start < PROBE_SECONDS and n < len(ops)):
            tracer.start_op(n)
            runner.run(n, ops[n])
            n += 1
    return {"value": tracer.maxes["exactnum.max_operand_bits"], "ops_probed": n}


def end_to_end(records: list[Record], setup: list[tuple[float, float]], speed: HostSpeed) -> dict:
    """End-to-end metrics from timings scaled by the host's speed at the
    time each was taken; "raw" gives the same figures unscaled."""
    ok = [r for r in records if r.outcome == "ok"]
    ok_rate = len(ok) / len(records)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "ok_rate": {"value": ok_rate, "samples": len(records)},
        "error_rate": {"value": 1 - ok_rate, "samples": len(records), "unit": "fraction"},
        "peak_rss_mb": {"value": rss_mb, "samples": 1},
    }
    raw = {}
    for scaled, into in ((True, metrics), (False, raw)):
        seconds = [r.seconds * (speed.scale(r.at) if scaled else 1.0) for r in records]
        busy = sum(seconds)
        latencies_ms = [s * 1e3 if r.outcome == "ok" else math.inf for s, r in zip(seconds, records)]
        lat = summary(latencies_ms)
        setup_s = summary([s * (speed.scale(at) if scaled else 1.0) for at, s in setup])
        into.update({
            "ok_ops_per_s": {"value": len(ok) / busy, "samples": len(records), "busy_s": busy},
            "latency_p50_ms": {"value": lat["median"], **lat},
            "latency_p90_ms": {"value": quantile(latencies_ms, 0.9), **lat},
            "setup_s": {"value": setup_s["median"], **setup_s},
        })
    for name, unit in END_TO_END.items():
        metrics[name]["unit"] = unit
    metrics["raw"] = {name: raw[name]["value"] for name in raw}
    metrics["host_kernel_s"] = {"value": speed.median_s(), "samples": len(speed.samples), "unit": "s"}
    return metrics


def per_layer(tracer: Tracer, first: list[Record], traced: list[Record]) -> dict:
    n = max(1, len(traced))
    untraced_s = {r.index: r.seconds for r in first}
    values = {}
    for name in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if name in MAXIMA:
            values[name] = tracer.maxes[name]
        elif stat == "self_ms":
            values[name] = tracer.self_ns[base] / 1e6 / n
        elif stat == "calls":
            values[name] = tracer.calls[base] / n
        elif base == "ops.failed":
            values[name] = sum(r.outcome == stat for r in first) / len(first)
        else:
            values[name] = tracer.counts[name] / n
    values["cli.output_bytes"] = sum(r.output_bytes for r in traced) / n
    base_s = sum(untraced_s[r.index] for r in traced)
    values["trace.overhead_ratio"] = sum(r.seconds for r in traced) / base_s if base_s else 1.0
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def write_spans(path: Path, tracer: Tracer):
    names = sorted({s[3] for s in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    origin = min((s[4] for s in tracer.spans), default=0)
    with path.open("w") as handle:
        json.dump({"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"], "names": names}, handle)
        handle.write("\n")
        for span_id, parent, op, name, start, end in tracer.spans:
            handle.write(json.dumps([span_id, parent, op, index[name], start - origin, end - origin]) + "\n")


def outcome_counts(records: list[Record]) -> dict:
    return {name: sum(r.outcome == name for r in records) for name in OUTCOMES}


def by_kind(records: list[Record], ops: list[Op]) -> dict:
    """Outcomes and latency quartiles of each operation kind."""
    kinds: dict = {}
    for r in records:
        kinds.setdefault(ops[r.index % len(ops)].kind, []).append(r)
    return {
        kind: {"outcomes": outcome_counts(rs),
               "latency_ms": summary([r.seconds * 1e3 if r.outcome == "ok" else math.inf for r in rs])}
        for kind, rs in sorted(kinds.items())
    }


def failures(records: list[Record], ops: list[Op]) -> list[dict]:
    seen, listed = set(), []
    for r in records:
        if r.outcome != "ok" and r.index % len(ops) not in seen and len(listed) < 20:
            seen.add(r.index % len(ops))
            listed.append({"outcome": r.outcome, "argv": list(ops[r.index % len(ops)].argv), "detail": r.detail})
    return listed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    package = load_program()
    ops = generate(args.workload, args.seed)
    counts = None
    if any(op.kind == "triples" for op in ops):
        max_n = max(op.data["n"] for op in ops if op.kind == "triples")
        counts = TripleCounts(triples_up_to(max_n), max_n)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "implementation": platform.python_implementation(),
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "command": list(getattr(sys, "orig_argv", sys.argv)),
        "ops_generated": len(ops), "ops_digest": digest(ops),
    }
    with tempfile.TemporaryDirectory(dir=RESULTS) as outdir:
        runner = Runner(package.cli, Path(outdir), counts)
        for argv in WARMUP:
            runner.call(argv, 60.0)
        if args.trace:
            first_n = max(2, round(args.seconds * WORKLOADS[args.workload].trace_rate))
            measured = [runner.run(i, ops[i % len(ops)]) for i in range(first_n)]
            tracer = Tracer(package)
            retraced = []
            with tracer:
                for i in range(first_n):
                    if ops[i % len(ops)].kind not in HANGS:
                        tracer.start_op(i)
                        retraced.append(runner.run(i, ops[i % len(ops)], TRACE_DEADLINE_FACTOR))
            metrics = per_layer(tracer, measured, retraced)
            write_spans(RESULTS / f"{stem}.spans.jsonl", tracer)
            record["ops_traced"] = len(retraced)
        else:
            setup_child()  # compiles the bytecode cache; not counted
            setup, speed = [], HostSpeed()
            measured, retraced = timed_loop(runner, ops, args.seconds, setup, speed), []
            metrics = end_to_end(measured, setup, speed)
            record["exactnum.max_operand_bits"] = probe_max_operand_bits(runner, package, ops)
    records = measured + retraced
    wrong = sum(r.outcome in WRONG for r in records)
    record.update(attempted=len(records), failed=wrong, outcomes=outcome_counts(measured),
                  failures=failures(records, ops), by_kind=by_kind(measured, ops), metrics=metrics)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    shown = PER_LAYER if args.trace else END_TO_END
    line = {
        "correct": wrong == 0, "attempted": len(records), "failed": wrong,
        "metrics": {name: {"value": metrics[name]["value"], "unit": unit} for name, unit in shown.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
