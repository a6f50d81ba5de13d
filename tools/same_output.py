"""Check that two source trees of cyclicquad give the same output.

    python3 tools/same_output.py PARENT_SRC CHANGE_SRC

Runs every operation of seeds 1-3 of the benchmark's `scan`, `exact` and
`bigops` workloads (bench/workloads.py, imported read-only) through
`cyclicquad.cli.main` in each tree, leaving out the kinds built to hang
(`workloads.HANGS`).  Like bench/run.py it passes `--out` when an operation
asks for it.  For each operation it hashes the exit code, stdout, the
`--out` file and stderr, then prints the operation count, the mismatch
count and the first differing argv.  Exits 1 on any mismatch.

Each tree is imported in turn into this process, so both must be trees of
the same package layout (SRC/cyclicquad/cli.py).  A full run takes several
minutes per tree.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan", "exact", "bigops")
SEEDS = (1, 2, 3)


def load_workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def all_ops(workloads) -> list:
    return [
        op
        for name in WORKLOADS
        for seed in SEEDS
        for op in workloads.generate(name, seed)
        if op.kind not in workloads.HANGS
    ]


def import_cli(src: Path):
    """cyclicquad.cli from `src`, dropping any cyclicquad imported before."""
    for name in [n for n in sys.modules if n == "cyclicquad" or n.startswith("cyclicquad.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        cli = importlib.import_module("cyclicquad.cli")
    finally:
        sys.path.remove(str(src))
    if Path(cli.__file__).resolve().parent != src / "cyclicquad":
        raise SystemExit(f"imported cyclicquad from {cli.__file__}, not {src}")
    return cli


def run_one(cli, index: int, op) -> str:
    """Hash of (exit code, stdout, --out file, stderr) for one operation.  The
    --out path is relative to the working directory, so that both trees see
    the same argv."""
    argv = list(op.argv)
    path = None
    if op.out:
        path = Path(f"op{index}.{'txt' if op.fmt == 'text' else op.fmt}")
        argv = ["--out", str(path), *argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = cli.main(argv)
        except SystemExit as exc:
            result = exc.code
        except Exception as exc:  # a traceback is an outcome to compare
            result = f"{type(exc).__name__}: {exc}"
    written = None
    if path is not None and path.exists():
        written = path.read_text()
        path.unlink()
    record = repr((result, out.getvalue(), written, err.getvalue()))
    return hashlib.sha256(record.encode()).hexdigest()


def hashes(src: Path, ops: list) -> list[str]:
    cli = import_cli(src)
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            return [run_one(cli, i, op) for i, op in enumerate(ops)]
        finally:
            os.chdir(home)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python3 tools/same_output.py PARENT_SRC CHANGE_SRC", file=sys.stderr)
        return 2
    parent, change = (Path(a).resolve() for a in args)
    ops = all_ops(load_workloads())
    before, after = hashes(parent, ops), hashes(change, ops)
    differing = [op for op, a, b in zip(ops, before, after) if a != b]
    print(f"ops: {len(ops)}")
    print(f"mismatches: {len(differing)}")
    if differing:
        print(f"first differing argv: {' '.join(differing[0].argv)}")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
