"""Per-layer tracing by wrapping the program's public functions from outside.

`from .x import y` copies a binding, so each wrapped function is rebound in
every cyclicquad module that holds it; Surd methods and the figure
validators are patched on their classes.  Spans live in memory: the
functions that run per sample or per arithmetic step only add to per-name
totals, every other span is also recorded as (id, parent, operation, name,
start_ns, end_ns) for writing out after the run.  Self time is a span's time minus the time of the wrapped
spans nested directly inside it.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from fractions import Fraction
from time import perf_counter_ns

# (module, attribute, span name): module-level functions.
FUNCTIONS = [
    ("cli", "build_parser", "cli.build_parser"),
    ("cli", "main", "cli.main"),
    ("exactnum", "square_free_split", "exactnum.square_free_split"),
    ("exactnum", "to_exact", "exactnum.to_exact"),
    ("exactnum", "approx", "exactnum.approx"),
    ("exactnum", "render_decimal", "exactnum.render_decimal"),
    ("mensuration", "abadha_split", "mensuration.abadha_split"),
    ("mensuration", "heron_area", "mensuration.heron_area"),
    ("mensuration", "sutra_area", "mensuration.sutra_area"),
    ("mensuration", "area_by_diagonal", "mensuration.area_by_diagonal"),
    ("mensuration", "cyclic_diagonal_pair", "mensuration.cyclic_diagonal_pair"),
    ("oracle", "area_scan", "oracle.area_scan"),
    ("oracle", "embed", "oracle.embed"),
    ("oracle", "shoelace_area", "oracle.shoelace_area"),
    ("oracle", "concyclic_exact", "oracle.concyclic_exact"),
    ("construct", "brahmagupta_quad", "construct.brahmagupta_quad"),
    ("triples", "generate_triples", "triples.generate_triples"),
    ("triples", "hypotenuse_pairs", "triples.hypotenuse_pairs"),
    ("manifest", "run_manifest", "manifest.run_manifest"),
    ("svg", "scan_svg", "svg.scan_svg"),
]

# (module, class, attribute, span name): methods patched on the class.
METHODS = [
    ("exactnum", "Surd", "__init__", "exactnum.surd_new"),
    ("exactnum", "Surd", "sqrt", "exactnum.surd_sqrt"),
    ("exactnum", "Surd", "__add__", "exactnum.surd_add"),
    ("exactnum", "Surd", "__radd__", "exactnum.surd_add"),
    ("exactnum", "Surd", "approx", "exactnum.approx"),
    ("mensuration", "Triangle", "__post_init__", "mensuration.validate"),
    ("mensuration", "QuadSides", "__post_init__", "mensuration.validate"),
    ("mensuration", "DiagQuad", "__post_init__", "mensuration.validate"),
]

# Called thousands of times per scan: totals only, no span records.
TOTALS_ONLY = ("exactnum.", "mensuration.validate", "mensuration.abadha_split",
               "oracle.embed", "oracle.shoelace_area")

# Observed at a span's end for the extra counts of `Tracer._observe`.
OBSERVED = {
    "exactnum.square_free_split", "exactnum.surd_new", "exactnum.to_exact",
    "oracle.area_scan", "triples.generate_triples", "manifest.run_manifest", "svg.scan_svg",
}


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return 0


class Tracer:
    """Install with `with Tracer(package) as t:` and call `t.start_op(i)`
    before running operation i.  All wrappers are removed on exit."""

    def __init__(self, package):
        self.package = package
        self.op = -1
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.maxes = defaultdict(int)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_id = 0
        self._undo: list[tuple] = []
        self._modules = {
            name: mod for name, mod in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        }
        self.exactnum = self._modules[package.__name__ + ".exactnum"]

    def start_op(self, index: int):
        """Attribute spans to operation `index`.  The stack is cleared because
        a deadline raised inside a wrapper's own bookkeeping can leave a frame
        behind."""
        self.op = index
        self._stack.clear()

    # -- observers: extra counts taken at a span's end ----------------------

    def _observe(self, name, args, result):
        if name == "exactnum.square_free_split":
            self._max("exactnum.square_free_split.max_input_bits", args[0].bit_length())
        elif name == "exactnum.surd_new":
            surd = args[0]
            bits = max(_bits(surd.coefficient), surd.radicand.bit_length())
            self._max("exactnum.max_operand_bits", bits)
        elif name == "exactnum.to_exact":
            self._max("exactnum.max_operand_bits", _bits(result))
        elif name == "oracle.area_scan":
            self.counts["oracle.area_scan.samples"] += len(result.samples)
        elif name == "triples.generate_triples":
            self.counts["triples.found"] += len(result)
        elif name == "manifest.run_manifest":
            self.counts["manifest.entries_failed"] += sum(e.status != "pass" for e in result)
        elif name == "svg.scan_svg":
            self.counts["svg.bytes"] += len(result)

    def _max(self, key, value):
        if value > self.maxes[key]:
            self.maxes[key] = value

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name, fn):
        tracer = self
        record = not name.startswith(TOTALS_ONLY)
        observed = name in OBSERVED
        incompatible = self.exactnum.IncompatibleRadicands

        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][1] if stack else None
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            else:
                span_id = parent
            frame = [0, span_id]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except incompatible:
                if name == "exactnum.surd_add":
                    tracer.counts["exactnum.incompatible_radicands.raised"] += 1
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                elapsed = end - start
                tracer.calls[name] += 1
                tracer.self_ns[name] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if record:
                    tracer.spans.append((span_id, parent, tracer.op, name, start, end))
            if observed:
                tracer._observe(name, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def __enter__(self):
        prefix = self.package.__name__ + "."
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(self._modules[prefix + mod_name], attr)
            wrapper = self._wrap(name, original)
            for mod in self._modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(self._modules[prefix + mod_name], cls_name)
            original = cls.__dict__[attr]
            if isinstance(original, staticmethod):
                patched = staticmethod(self._wrap(name, original.__func__))
            else:
                patched = self._wrap(name, original)
            self._undo.append((cls, attr, original))
            setattr(cls, attr, patched)
        return self

    def __exit__(self, *exc):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()
        return False
