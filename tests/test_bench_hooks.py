"""The benchmark's tracer (bench/tracer.py) wraps program functions by name.
Read its hook lists, without editing them, and check that every hooked name
still exists, so that a cleanup cannot silently break the per-layer
benchmark."""

import importlib
import importlib.util
from pathlib import Path

import cyclicquad
from cyclicquad.cli import main

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hooked_name_exists():
    tracer = load_tracer()
    for module_name, attr, _ in tracer.FUNCTIONS:
        module = importlib.import_module(f"cyclicquad.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    for module_name, cls_name, attr, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"cyclicquad.{module_name}"), cls_name)
        assert attr in vars(cls), f"{module_name}.{cls_name}.{attr}"
    assert issubclass(cyclicquad.exactnum.IncompatibleRadicands, Exception)


def test_traced_run_observes_surds(capsys):
    tracer = load_tracer()
    with tracer.Tracer(cyclicquad) as t:
        t.start_op(0)
        assert main(["area", "14", "12", "9", "13"]) == 0
        assert main(["area", "2", "3", "4", "5", "--diagonal", "3"]) == 2
    capsys.readouterr()
    # Surd.sqrt takes every root and builds its result without Surd.__init__
    assert t.calls["exactnum.surd_sqrt"] > 0
    assert t.calls["exactnum.square_free_split"] > 0
    assert t.maxes["exactnum.max_operand_bits"] > 0


def test_traced_svg_scan_observes_the_drawing(capsys):
    # the tracer wraps `svg.scan_svg` by name and measures its result
    tracer = load_tracer()
    with tracer.Tracer(cyclicquad) as t:
        t.start_op(0)
        assert main(["--format", "svg", "--steps", "9", "scan", "75", "40", "51", "68"]) == 0
    capsys.readouterr()
    assert t.calls["svg.scan_svg"] == 1
    assert t.counts["svg.bytes"] > 0


def test_traced_json_scan_counts_every_sample(capsys):
    # a JSON scan evaluates its whole grid through `oracle.area_scan`,
    # which the tracer wraps by name and counts the samples of
    tracer = load_tracer()
    with tracer.Tracer(cyclicquad) as t:
        t.start_op(0)
        assert main(["--format", "json", "--steps", "9", "scan", "75", "40", "51", "68"]) == 0
    capsys.readouterr()
    assert t.calls["oracle.area_scan"] == 1
    assert t.counts["oracle.area_scan.samples"] == 9
