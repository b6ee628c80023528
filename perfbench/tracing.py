"""The traced run: one workload's CLI commands in-process, split into layers.

``upto.cli.main(argv)`` runs in this process with stdout swapped for an
in-memory buffer.  Timing shims replace ``upto``'s public functions in the
modules that call them (``upto.cli``, ``upto.formats``, ``upto.strata``,
``upto.checker``, ``upto.companion``, ``upto.verify``, ``upto.gallery``) and
record one span per call: layer, start, end and the enclosing span.  A
layer's self time is its spans' durations minus the time their child spans
cover, so the self times of all layers add up to the traced wall time.

A binding that no longer exists (say a refactor stops calling
``largest_progressing_to``) is skipped; a layer left with no binding reports
its metrics as absent.  Allocation peaks come from a separate pass under
``tracemalloc``, which would otherwise slow the Python-heavy layers and
distort their times.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import io
import statistics
import time
import tracemalloc
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

MB = float(1 << 20)

# Layer -> the "module.attribute" bindings its shims replace.  Each binding
# is where a caller looks the name up, so every call goes through exactly
# one shim.
BINDINGS: dict[str, tuple[str, ...]] = {
    "formats.parse_aut": ("upto.formats.parse_aut_document",),
    "lts.build": ("upto.formats.Lts",),
    "formats.parse_relation": ("upto.cli.parse_relation_document", "upto.cli.resolve_relation"),
    "strata": (
        "upto.cli.compute_strata",
        "upto.checker.compute_strata",
        "upto.gallery.compute_strata",
        "upto.verify.compute_strata",
    ),
    "lts.progress": ("upto.strata.largest_progressing_to", "upto.verify.largest_progressing_to"),
    "companion.lrf": ("upto.companion.lrf", "upto.cli.lrf", "upto.verify.lrf"),
    "checker": ("upto.cli.check_upto", "upto.verify.check_upto", "upto.verify.check_companion"),
    "lts.diagnose": (
        "upto.checker.progresses_to",
        "upto.companion.progresses_to",
        "upto.verify.progresses_to",
        "upto.verify.progress_holds",
    ),
    "formats.render": ("upto.cli.render_relation",),
    "companion.dominance": ("upto.verify.check_lrf_largest",),
    "gallery": ("upto.cli.verify_gallery", "upto.verify.build_T", "upto.verify.verify_gallery"),
    "verify": ("upto.cli.run_verification",),
}
# Layers whose bindings are every function upto.verify imports from a module.
IMPORTED_BY_VERIFY = {"lattice": "upto.lattice", "sampling": "upto.sampling"}
# Layers whose call arguments and results the counts are taken from.
KEPT = {"lts.build", "strata", "companion.lrf", "checker", "verify"}
# Layers whose allocation peak the tracemalloc pass records, and the metric.
PEAKED = {"strata": "strata.peak_alloc_mb", "formats.render": "formats.peak_alloc_mb"}


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    better: str
    layer: str  # the span the value comes from; absent when it has no binding
    measured_at: str
    moves: str  # the end-to-end metric it should move
    workloads: str  # where it matters


PER_LAYER = (
    LayerMetric("cli.self_s", "s", "lower", "cli", "main minus children", "wall_s", "all (small)"),
    LayerMetric("formats.parse_aut_s", "s", "lower", "formats.parse_aut", "parse_aut_document", "wall_s", "ladder-strata"),
    LayerMetric("lts.build_s", "s", "lower", "lts.build", "Lts(...) called from parse_aut", "wall_s", "ladder-strata, sparse-bisim"),
    LayerMetric("lts.states", "count", "lower", "lts.build", "states of the largest parsed system", "(context)", "all"),
    LayerMetric("lts.transitions", "count", "lower", "lts.build", "transitions of the largest parsed system", "(context)", "all"),
    LayerMetric("formats.parse_relation_s", "s", "lower", "formats.parse_relation", "parse_relation_document plus resolve_relation", "wall_s", "check-upto-copies"),
    LayerMetric("strata.self_s", "s", "lower", "strata", "compute_strata minus children", "wall_s, cpu_s", "sparse-bisim"),
    LayerMetric("lts.progress_s", "s", "lower", "lts.progress", "largest_progressing_to", "wall_s, cpu_s", "sparse-bisim, ladder-strata"),
    LayerMetric("lts.progress_calls", "count", "lower", "lts.progress", "largest_progressing_to calls", "wall_s", "sparse-bisim, ladder-strata"),
    LayerMetric("strata.epsilon", "count", "lower", "strata", "chain length of the largest system", "(context)", "all with strata"),
    LayerMetric("strata.blocks", "count", "lower", "strata", "bisimilarity classes of the largest system", "(context)", "all with strata"),
    LayerMetric("strata.peak_alloc_mb", "MB", "lower", "strata", "tracemalloc peak inside compute_strata", "peak_rss_mb", "sparse-bisim"),
    LayerMetric("companion.lrf_s", "s", "lower", "companion.lrf", "lrf", "wall_s", "check-upto-copies"),
    LayerMetric("companion.lrf_stratum", "count", "lower", "companion.lrf", "largest stratum index lrf returned (0 if not called)", "(context)", "check-upto-copies"),
    LayerMetric("checker.self_s", "s", "lower", "checker", "check_upto minus children", "wall_s", "check-upto-copies"),
    LayerMetric("checker.pairs", "count", "lower", "checker", "pairs of the checked relations", "(context)", "check-upto-copies"),
    LayerMetric("checker.violations", "count", "lower", "checker", "unmatched moves reported", "(context)", "check-upto-copies"),
    LayerMetric("lts.diagnose_s", "s", "lower", "lts.diagnose", "progresses_to plus progress_holds", "wall_s", "check-upto-copies, verify-1000"),
    LayerMetric("formats.render_s", "s", "lower", "formats.render", "render_relation", "wall_s", "ladder-strata"),
    LayerMetric("formats.stdout_mb", "MB", "lower", "cli", "bytes written to stdout", "wall_s", "ladder-strata"),
    LayerMetric("formats.peak_alloc_mb", "MB", "lower", "formats.render", "tracemalloc peak inside render_relation", "peak_rss_mb", "ladder-strata"),
    LayerMetric("lattice.self_s", "s", "lower", "lattice", "upto.lattice functions called from verify", "wall_s", "verify-1000"),
    LayerMetric("lattice.calls", "count", "lower", "lattice", "those calls", "wall_s", "verify-1000"),
    LayerMetric("companion.dominance_s", "s", "lower", "companion.dominance", "check_lrf_largest minus children", "wall_s", "verify-1000"),
    LayerMetric("sampling.self_s", "s", "lower", "sampling", "upto.sampling generators called from verify", "wall_s", "verify-1000"),
    LayerMetric("gallery.self_s", "s", "lower", "gallery", "build_T and verify_gallery minus children", "wall_s", "verify-1000"),
    LayerMetric("verify.self_s", "s", "lower", "verify", "run_verification minus children", "wall_s", "verify-1000"),
    LayerMetric("verify.checks", "count", "higher", "verify", "checks in the report", "(context)", "verify-1000"),
    LayerMetric("verify.cases", "count", "higher", "verify", "cases over all checks", "(context)", "verify-1000"),
    LayerMetric("trace.wall_s", "s", "lower", "cli", "duration of main", "wall_s", "all"),
    LayerMetric("trace.overhead_s", "s", "lower", "cli", "trace.wall_s minus (wall_s - setup_s) of the untraced children", "(tracing cost)", "all"),
)


@dataclass
class Span:
    layer: str
    start: float
    parent: Optional[int]
    end: float = 0.0
    args: tuple = ()
    result: object = None


class Tracer:
    """Spans of one invocation, kept in memory in call order."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn: Callable) -> Callable:
        def shim(*args, **kwargs):
            span = Span(layer, 0.0, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if layer in KEPT:
                span.args, span.result = args, result
            return result

        return shim

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        for span, covered in zip(self.spans, child_time):
            out[span.layer] = out.get(span.layer, 0.0) + (span.end - span.start - covered)
        return out


class PeakRecorder:
    """Largest tracemalloc peak above the starting level, per layer, over all calls."""

    def __init__(self):
        self.peaks: dict[str, float] = {}

    def wrap(self, layer: str, fn: Callable) -> Callable:
        def shim(*args, **kwargs):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] - base
                self.peaks[layer] = max(self.peaks.get(layer, 0.0), peak / MB)

        return shim


def resolve_bindings() -> dict[str, list[tuple[object, str]]]:
    """(module, attribute) pairs per layer, for the bindings that exist."""
    found: dict[str, list[tuple[object, str]]] = {}
    for layer, paths in BINDINGS.items():
        for path in paths:
            module_name, attr = path.rsplit(".", 1)
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            if callable(getattr(module, attr, None)):
                found.setdefault(layer, []).append((module, attr))
    try:
        verify = importlib.import_module("upto.verify")
    except ImportError:
        return found
    for layer, source in IMPORTED_BY_VERIFY.items():
        for attr, value in vars(verify).items():
            if inspect.isfunction(value) and value.__module__ == source:
                found.setdefault(layer, []).append((verify, attr))
    return found


@contextlib.contextmanager
def installed(bindings: dict[str, list[tuple[object, str]]], wrap: Callable):
    saved = []
    try:
        for layer, targets in bindings.items():
            for module, attr in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, wrap(layer, original))
        yield
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


@dataclass
class TracedInvocation:
    exit_code: int
    stdout: bytes
    error: Optional[str]
    metrics: dict[str, float]


def _blocks(relation) -> int:
    # a state starts a new class when it is the first member of its own row
    mat = relation.matrix
    return int((mat.argmax(axis=1) == np.arange(mat.shape[0])).sum())


def invocation_metrics(tracer: Tracer, stdout_bytes: int) -> dict[str, float]:
    """Every per-layer value of one invocation, absent layers included as zero."""
    spans = tracer.spans
    by_layer: dict[str, list[Span]] = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)
    self_s = tracer.self_times()
    m = {
        metric.name: self_s.get(metric.layer, 0.0)
        for metric in PER_LAYER
        if metric.unit == "s" and not metric.name.startswith("trace.")
    }
    m.update(
        {
            "trace.wall_s": sum(s.end - s.start for s in by_layer.get("cli", [])),
            "formats.stdout_mb": stdout_bytes / MB,
            "lts.progress_calls": len(by_layer.get("lts.progress", [])),
            "lattice.calls": len(by_layer.get("lattice", [])),
        }
    )

    built = max(by_layer.get("lts.build", []), key=lambda s: s.result.n_states, default=None)
    m["lts.states"] = built.result.n_states if built else 0
    m["lts.transitions"] = built.result.n_transitions if built else 0

    seq = max(by_layer.get("strata", []), key=lambda s: s.result.lts.n_states, default=None)
    m["strata.epsilon"] = seq.result.epsilon if seq else 0
    m["strata.blocks"] = _blocks(seq.result.bisimilarity()) if seq else 0

    m["companion.lrf_stratum"] = max(
        (span.args[0].strata.index(span.result) for span in by_layer.get("companion.lrf", [])),
        default=0,
    )

    checks = by_layer.get("checker", [])
    m["checker.pairs"] = sum(len(span.args[1]) for span in checks)
    m["checker.violations"] = sum(len(span.result.diagnosis.violations) for span in checks)

    reports = [span.result for span in by_layer.get("verify", [])]
    m["verify.checks"] = sum(len(r.checks) for r in reports)
    m["verify.cases"] = sum(c.cases for r in reports for c in r.checks)
    return m


def _call_main(main: Callable, argv: list[str]) -> tuple[int, bytes, Optional[str]]:
    # stdout goes to memory rather than a byte counter so the oracle can check it
    buffer = io.StringIO()
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(argv)
    except Exception as e:  # the traced run must report, not die, on a program fault
        return -1, buffer.getvalue().encode(), f"{type(e).__name__}: {e}"
    return code, buffer.getvalue().encode(), None


def traced_invocation(argv: list[str], bindings) -> TracedInvocation:
    import upto.cli

    tracer = Tracer()
    with installed(bindings, tracer.wrap):
        code, out, error = _call_main(tracer.wrap("cli", upto.cli.main), argv)
    metrics = invocation_metrics(tracer, len(out)) if error is None else {}
    return TracedInvocation(code, out, error, metrics)


def peak_invocation(argv: list[str], bindings) -> tuple[int, bytes, Optional[str], dict[str, float]]:
    import upto.cli

    recorder = PeakRecorder()
    peaked = {layer: targets for layer, targets in bindings.items() if layer in PEAKED}
    tracemalloc.start()
    try:
        with installed(peaked, recorder.wrap):
            code, out, error = _call_main(upto.cli.main, argv)
    finally:
        tracemalloc.stop()
    peaks = {PEAKED[layer]: recorder.peaks.get(layer, 0.0) for layer in peaked}
    return code, out, error, peaks


def summarize(invocations: list[dict[str, float]], peaks: dict[str, float], overhead: float, layers) -> dict[str, float]:
    """Median over traced invocations of each metric whose layer has a binding."""
    present = set(layers) | {"cli"}
    out = {}
    for metric in PER_LAYER:
        if metric.layer not in present:
            continue
        if metric.name in PEAKED.values():
            if metric.name in peaks:
                out[metric.name] = peaks[metric.name]
        elif metric.name == "trace.overhead_s":
            out[metric.name] = overhead
        else:
            out[metric.name] = statistics.median(inv[metric.name] for inv in invocations)
    return out
