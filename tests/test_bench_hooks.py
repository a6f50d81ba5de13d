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
