"""Span recorder for the traced benchmark run.

``Tracer.phase`` wraps the library's public functions for the duration
of one phase (set-up or one operation): every module attribute that
refers to a traced function is rebound to a recording wrapper, so calls
the package makes internally are recorded as well as the benchmark's
own.  Outside a phase the original functions are back in place and the
program runs untouched.

Each span keeps its name, start, end, parent and a point count.  Self
time is a span's duration minus the time its children cover.  Memory is
traced in phases of their own: ``tracemalloc`` hooks every allocation
and slows the Python-heavy layers several-fold, so a memory phase wraps
only the layers whose peak is reported and its times are not used.
Spans stay in memory until ``write`` dumps them.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

_MB = 1e6
PACKAGE = "elastisph"


# (dotted path of the traced callable, span name, position of the argument
# holding evaluation points, whose count the span records, or None)
TARGETS = (
    ("elastisph.quadrature.rule_for_degree", "quadrature.rule_for_degree", None),
    ("elastisph.problem.validate", "problem.validate", None),
    ("elastisph.problem.build_sigma", "problem.build_sigma", None),
    ("elastisph.harmonics.project", "harmonics.project", None),
    ("elastisph.harmonics.vsh_basis", "harmonics.vsh_basis", 0),
    ("elastisph.spectra.single_layer_matrix", "spectra.single_layer_matrix", None),
    ("elastisph.spectra.single_layer_eigs", "spectra.single_layer_eigs", None),
    ("elastisph.spectra.adjoint_double_eigs", "spectra.adjoint_double_eigs", None),
    ("elastisph.spectra.apply_single_layer", "spectra.apply_single_layer", 3),
    ("elastisph.system.assemble", "system.assemble", None),
    ("elastisph.system.solve", "system.solve", None),
    ("elastisph.system.solve_direct", "system.solve_direct", None),
    ("elastisph.system.solve_iterative", "system.solve_iterative", None),
    ("elastisph.system.rigid_trace_vectors", "system.rigid_trace_vectors", None),
    ("elastisph.system.apply_operator", "system.apply_operator", None),
    ("elastisph.postprocess.FieldEvaluator.__init__", "postprocess.FieldEvaluator.init", None),
    ("elastisph.postprocess.FieldEvaluator.displacement", "postprocess.FieldEvaluator.displacement",
     1),
)

# layers whose tracemalloc peak is reported; only these are wrapped in a
# memory phase
MEMORY_TARGETS = ("system.assemble", "system.solve", "system.apply_operator")

# what a span stores from its function's result: the computed size of the
# dense coupling matrix, and the GMRES iteration count the Solution reports
RESULT_NOTES = {
    "system.assemble": lambda dense: dense.Nmat.nbytes / _MB,
    "system.solve_iterative": lambda sol: sol.iterations or 0,
}


class Span:
    __slots__ = ("id", "parent", "phase", "name", "start", "end", "points",
                 "base", "peak", "child_s", "note")

    def __init__(self, id_, parent, phase, name, points, base):
        self.id, self.parent, self.phase, self.name = id_, parent, phase, name
        self.points, self.base, self.peak = points, base, base
        self.child_s = 0.0
        self.note = 0
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _resolve(path: str):
    """(owner, attribute, object) for a dotted path into a module or class."""
    parts = path.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:-1]:
            owner = getattr(owner, attr)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(path)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.phases: list[str] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._memory = False

    # -- span bookkeeping ---------------------------------------------------

    def _enter(self, name: str, points: int) -> Span:
        parent = self._stack[-1] if self._stack else None
        cur = 0
        if self._memory:
            cur, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
        span = Span(len(self.spans), parent.id if parent else -1, len(self.phases) - 1,
                    name, points, cur)
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
        self._stack.pop()
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += span.duration
            parent.peak = max(parent.peak, span.peak)

    def _wrap(self, name, fn, points_arg):
        note = RESULT_NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            points = 0
            if points_arg is not None and len(args) > points_arg:
                points = len(np.atleast_2d(args[points_arg]))
            span = tracer._enter(name, points)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(span)
            if note is not None:
                span.note = note(result)
            return result

        return traced

    # -- installing and removing the wrappers --------------------------------

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for path, name, points_arg in TARGETS:
            if self._memory and name not in MEMORY_TARGETS:
                continue
            owner, attr, original = _resolve(path)
            wrapper = self._wrap(name, original, points_arg)
            if isinstance(owner, type):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def _uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextmanager
    def phase(self, name: str, memory: bool = False):
        """Trace everything run inside the block under one root span."""
        self.phases.append(name)
        self._memory = memory
        self._install()
        if memory:
            tracemalloc.start()
        root = self._enter(name, 0)
        try:
            yield root
        finally:
            self._exit(root)
            if memory:
                tracemalloc.stop()
            self._uninstall()

    # -- results ----------------------------------------------------------------

    def totals(self, phase: int) -> dict[str, dict]:
        """Per span name: calls, seconds, self seconds, points, peak MB, notes."""
        out: dict[str, dict] = {}
        for s in self.spans:
            if s.phase != phase or s.parent == -1:
                continue
            t = out.setdefault(s.name, {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0,
                                        "peak_mb": 0.0, "note": 0})
            t["calls"] += 1
            t["s"] += s.duration
            t["self_s"] += s.self_s
            t["points"] += s.points
            t["peak_mb"] = max(t["peak_mb"], (s.peak - s.base) / _MB)
            t["note"] += s.note
        return out

    def roots(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.parent == -1 and s.name == name]

    def write(self, path) -> None:
        rows = [[s.id, s.parent, self.phases[s.phase], s.name, s.start, s.end, s.points,
                 s.peak - s.base] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["id", "parent", "phase", "name", "start", "end",
                                   "points", "peak_bytes"], "spans": rows}, fh)


# name of the per-layer metric -> (span name, field, unit); "s" fields are
# inclusive seconds, "self_s" exclude the time of traced children.  Peaks
# are maxima over the memory phases, the dense size a maximum over all
# phases; every other value is the set-up total plus the mean per traced
# operation.
LAYER_METRICS = {
    "quadrature.rule_for_degree.calls": ("quadrature.rule_for_degree", "calls", "count"),
    "quadrature.rule_for_degree.s": ("quadrature.rule_for_degree", "s", "s"),
    "problem.validate.s": ("problem.validate", "s", "s"),
    "problem.build_sigma.s": ("problem.build_sigma", "s", "s"),
    "harmonics.project.s": ("harmonics.project", "s", "s"),
    "harmonics.vsh_basis.calls": ("harmonics.vsh_basis", "calls", "count"),
    "harmonics.vsh_basis.points": ("harmonics.vsh_basis", "points", "count"),
    "harmonics.vsh_basis.self_s": ("harmonics.vsh_basis", "self_s", "s"),
    "spectra.single_layer_matrix.calls": ("spectra.single_layer_matrix", "calls", "count"),
    "spectra.single_layer_matrix.self_s": ("spectra.single_layer_matrix", "self_s", "s"),
    "spectra.single_layer_eigs.calls": ("spectra.single_layer_eigs", "calls", "count"),
    "spectra.adjoint_double_eigs.calls": ("spectra.adjoint_double_eigs", "calls", "count"),
    "system.assemble.self_s": ("system.assemble", "self_s", "s"),
    "system.assemble.peak_mb": ("system.assemble", "peak_mb", "MB"),
    "system.dense_mb": ("system.assemble", "note", "MB"),
    "system.solve.peak_mb": ("system.solve", "peak_mb", "MB"),
    "system.solve_direct.self_s": ("system.solve_direct", "self_s", "s"),
    "system.solve_iterative.self_s": ("system.solve_iterative", "self_s", "s"),
    "system.gmres.iterations": ("system.solve_iterative", "note", "count"),
    "system.rigid_trace_vectors.s": ("system.rigid_trace_vectors", "s", "s"),
    "system.apply_operator.self_s": ("system.apply_operator", "self_s", "s"),
    "system.apply_operator.peak_mb": ("system.apply_operator", "peak_mb", "MB"),
    "postprocess.FieldEvaluator.init_s": ("postprocess.FieldEvaluator.init", "s", "s"),
    "postprocess.FieldEvaluator.displacement.self_s":
        ("postprocess.FieldEvaluator.displacement", "self_s", "s"),
    "spectra.apply_single_layer.self_s": ("spectra.apply_single_layer", "self_s", "s"),
}

def layer_metrics(tracer: Tracer, untraced_op_s: list[float]) -> dict[str, tuple[float, str]]:
    """Per-layer values of one traced run, with their units."""
    def phase_totals(name):
        return [tracer.totals(i) for i, p in enumerate(tracer.phases) if p == name]
    setup, ops, memory = phase_totals("setup"), phase_totals("op"), phase_totals("op.memory")
    out: dict[str, tuple[float, str]] = {}
    for metric, (span, field, unit) in LAYER_METRICS.items():
        def get(totals):
            return totals.get(span, {}).get(field, 0)
        if field == "peak_mb":
            value = max(get(t) for t in memory)
        elif unit == "MB":
            value = max(get(t) for t in setup + ops)
        else:
            value = get(setup[0]) + statistics.fmean(get(t) for t in ops)
        out[metric] = (float(value), unit)

    disp = [t["postprocess.FieldEvaluator.displacement"] for t in ops
            if "postprocess.FieldEvaluator.displacement" in t]
    points_per_s = sum(d["points"] for d in disp) / sum(d["s"] for d in disp) if disp else 0.0
    out["postprocess.points_per_s"] = (points_per_s, "1/s")

    op_roots = tracer.roots("op")
    traced = [r.duration for r in op_roots]
    untraced = statistics.median(untraced_op_s) if untraced_op_s else 0.0
    out["trace.op_s.p50"] = (statistics.median(traced), "s")
    out["trace.overhead_s"] = (statistics.median(traced) - untraced, "s")
    out["trace.op_span_s"] = (statistics.fmean(traced), "s")
    out["trace.op_layers_self_s"] = (statistics.fmean(r.child_s for r in op_roots), "s")
    out["trace.setup_span_s"] = (tracer.roots("setup")[0].duration, "s")
    return out
