"""Spans and counters around the library's layers, installed from outside.

Intra-package calls go through ``from .x import y`` bindings, so wrapping a
function where it is defined is not enough: ``install`` rebinds every name in
every ``motive_height`` module (and the package itself) that refers to a
wrapped function, and ``uninstall`` puts the originals back.  Methods are
wrapped on their class.  Ball arithmetic is counted, not spanned, by wrapping
the ``RealBall`` and ``ComplexBall`` operators.

Spans (name, start, end, parent, op) are kept in memory; a layer's self time
is its span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time

from motive_height import balls, cli, documents, experiments, fl, hodge, lines, motive, rational

# (owner, attribute, span name): module functions are rebound wherever they
# are imported; class attributes are patched on the class
SPANNED = [
    (balls, "ball_lu_solve", "balls.lu_solve"),
    (balls, "ball_det", "balls.det"),
    (hodge, "purity_check", "hodge.purity"),
    (hodge, "hodge_decompose", "hodge.decompose"),
    (hodge, "line_metric", "hodge.line_metric"),
    (fl, "check_strong_divisibility", "fl.strong_div"),
    (fl, "local_valuations", "fl.local_val"),
    (rational, "hnf_rational", "rational.hnf"),
    (rational, "smith_normal_form", "rational.snf"),
    (rational, "integer_kernel", "rational.kernel"),
    (lines.Lattice, "__init__", "lines"),
    (lines.MetrizedLine, "generator_norm", "lines"),
    (lines, "intersect_adelic", "lines"),
    (lines, "line_tensor", "lines"),
    (lines, "quotient_lattice_valuation", "lines"),
    (documents, "load_document", "documents.load"),
    (documents, "parse_motive", "documents.parse"),
    (cli, "main", "cli"),
    (motive, "validate", "motive.validate"),
    (motive, "height", "motive.height"),
    (experiments, "sublattice_motive", "experiments.sublattice"),
    (experiments, "validate_spec", "experiments.validate_spec"),
]

COUNTED = [
    (fl.FilPhiModule, ["__init__"], "fl.modules"),
    (balls.RealBall, ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                      "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                      "__abs__", "__pow__", "sqrt", "log", "exp"], "balls.real_ops"),
    (balls.ComplexBall, ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                         "__rmul__", "__truediv__", "__rtruediv__", "__neg__",
                         "__pow__", "conj", "abs_ball"], "balls.complex_ops"),
]


class Tracer:
    def __init__(self):
        self.spans = []            # (name, start, end, parent index, op)
        self.self_s = {}           # name -> summed self time
        self.calls = {}            # name -> span or call count
        self.op = None
        self._stack = []           # [span index, child time] per open span
        self._patches = []         # (namespace, attribute, original)

    # ---- recording ----

    def _call(self, name, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            duration = end - start
            if stack:
                stack[-1][1] += duration
            self.spans[index] = (name, start, end, parent, self.op)
            self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
            self.calls[name] = self.calls.get(name, 0) + 1

    def _span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapper

    def _count(self, name, fn):
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def op_span(self, op, fn, *args):
        """Root span of one op; its self time is the benchmark's glue."""
        self.op = op
        return self._call("op", fn, args, {})

    # ---- installing ----

    def _patch(self, namespace, attr, replacement):
        self._patches.append((namespace, attr, namespace.__dict__[attr]))
        setattr(namespace, attr, replacement)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "motive_height" or name.startswith("motive_height.")]
        for owner, attr, name in SPANNED:
            original = getattr(owner, attr)
            wrapper = self._span(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for cls, attrs, name in COUNTED:
            for attr in attrs:
                self._patch(cls, attr, self._count(name, cls.__dict__[attr]))

    def uninstall(self):
        while self._patches:
            namespace, attr, original = self._patches.pop()
            setattr(namespace, attr, original)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(json.dumps({"name": name, "start": start, "end": end,
                                    "parent": parent, "op": op}) + "\n")


def layer_metrics(tracer: Tracer, passes: int, overhead_frac: float, scale: float) -> dict:
    """Per-layer metrics per traced pass: self milliseconds, multiplied by
    ``scale`` (the host-speed factor), and call counts."""
    def ms(*names):
        return 1000.0 * scale * sum(tracer.self_s.get(n, 0.0) for n in names) / passes

    def calls(name):
        return tracer.calls.get(name, 0) / passes

    def ratio(num, den):
        d = tracer.calls.get(den, 0)
        return tracer.calls.get(num, 0) / d if d else 0.0

    return {
        "balls.lu_solve_ms": (ms("balls.lu_solve"), "ms"),
        "balls.lu_solve_calls": (calls("balls.lu_solve"), "count"),
        "balls.det_ms": (ms("balls.det"), "ms"),
        "balls.det_calls": (calls("balls.det"), "count"),
        "balls.real_ops": (calls("balls.real_ops"), "count"),
        "balls.complex_ops": (calls("balls.complex_ops"), "count"),
        "hodge.purity_ms": (ms("hodge.purity"), "ms"),
        "hodge.decompose_ms": (ms("hodge.decompose"), "ms"),
        "hodge.line_metric_ms": (ms("hodge.line_metric"), "ms"),
        "hodge.line_metric_calls": (calls("hodge.line_metric"), "count"),
        "hodge.line_metric_per_height": (ratio("hodge.line_metric", "motive.height"), "ratio"),
        "fl.strong_div_ms": (ms("fl.strong_div"), "ms"),
        "fl.strong_div_calls": (calls("fl.strong_div"), "count"),
        "fl.strong_div_per_module": (ratio("fl.strong_div", "fl.modules"), "ratio"),
        "fl.local_val_ms": (ms("fl.local_val"), "ms"),
        "rational.hnf_ms": (ms("rational.hnf"), "ms"),
        "rational.hnf_calls": (calls("rational.hnf"), "count"),
        "rational.snf_ms": (ms("rational.snf"), "ms"),
        "rational.kernel_ms": (ms("rational.kernel"), "ms"),
        "lines.ms": (ms("lines"), "ms"),
        "documents.parse_ms": (ms("documents.load", "documents.parse"), "ms"),
        "documents.calls": (calls("documents.parse"), "count"),
        "cli.self_ms": (ms("cli"), "ms"),
        "motive.validate_ms": (ms("motive.validate"), "ms"),
        "motive.validate_calls": (calls("motive.validate"), "count"),
        "motive.height_self_ms": (ms("motive.height"), "ms"),
        "experiments.sublattice_ms": (ms("experiments.sublattice"), "ms"),
        "experiments.validate_spec_ms": (ms("experiments.validate_spec"), "ms"),
        "trace.overhead_frac": (overhead_frac, "ratio"),
    }
