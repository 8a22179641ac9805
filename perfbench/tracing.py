"""Spans around the calls into each foatools layer, recorded from outside.

``Tracer.install`` replaces every public function of the foatools modules
with a wrapper, in every module namespace that holds it: callers look up
``foatools.spatial_metrics.energy_map`` or ``foatools.cli.read_foa_wav``
as module attributes, so each lookup reaches the wrapper. The CLI layer is
wrapped only at its entry point ``cli.main``, so argument parsing, JSON and
manifest handling and pool waits all count as its self time. Two classes
are wrapped as well: ``SphereGrid`` construction and ``TablePredictor``
queries. ``uninstall`` puts every original back.

Spans stay in memory, one per call, each with its parent on the same
thread; ``layer_metrics`` turns them into per-op counts and self times.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import os
import threading
import time

from stats import Span, self_times

MODULES = (
    "_util",
    "cli",
    "code_pattern",
    "curation",
    "foa",
    "guidance",
    "patch_saliency",
    "semantic_metrics",
    "spatial_metrics",
    "tensor_io",
)
CLI_ENTRY = "main"
METHODS = (("foa", "SphereGrid", "__init__"), ("guidance", "TablePredictor", "__call__"))


def _path_mb(arguments, result):
    return {"mb": os.path.getsize(arguments["path"]) / 1e6}


def _window_mb(arguments, result):
    start, end = result.window
    return {"mb_in": 4 * 8 * (end - start) / 1e6}  # four float64 channels


def _rows(arguments, result):
    return {"rows": len(arguments["logits"])}


def _windows(arguments, result):
    return {
        "windows_used": sum(result.windows_used.values()),
        "windows_skipped": sum(result.windows_skipped.values()),
    }


# Counters taken after a call returns. They run inside the wrapper but after
# the span's end, so they count in neither the span's nor its parent's time.
METERS = {
    "tensor_io.read_wav": _path_mb,
    "tensor_io.write_wav": _path_mb,
    "tensor_io.read_tensor": _path_mb,
    "tensor_io.write_tensor": _path_mb,
    "foa.energy_map": _window_mb,
    "guidance.sample_step": _rows,
    "spatial_metrics.evaluate_windows": _windows,
}


def _span_name(module_name: str, attr: str) -> str:
    return f"{module_name.rsplit('.', 1)[-1].lstrip('_')}.{attr}"


def _targets():
    """The modules to patch, (span name, function) for each wrapped module
    function, and (span name, class, method) for each wrapped method."""
    modules = [importlib.import_module(f"foatools.{m}") for m in MODULES]
    functions = []
    for module in modules:
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__ or inspect.isgeneratorfunction(inspect.unwrap(obj)):
                continue  # re-exports and context managers
            if module.__name__.endswith(".cli") and attr != CLI_ENTRY:
                continue
            functions.append((_span_name(module.__name__, attr), obj))
    methods = [
        (_span_name(module, cls), getattr(importlib.import_module(f"foatools.{module}"), cls), method)
        for module, cls, method in METHODS
    ]
    return modules, functions, methods


class Tracer:
    """Records a span per call of every wrapped foatools function."""

    def __init__(self):
        self.spans = []
        self.op = None
        self.main_thread = threading.main_thread().ident
        self._ids = itertools.count()
        self._local = threading.local()
        self._modules, self._functions, self._methods = _targets()
        self.span_names = {name for name, _ in self._functions} | {name for name, _, _ in self._methods}
        self._saved = []

    def _wrap(self, name, fn):
        meter = METERS.get(name)
        signature = inspect.signature(fn) if meter else None
        spans, ids, local = self.spans, self._ids, self._local

        def wrapper(*args, **kwargs):
            outer_start = time.perf_counter_ns()
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            result = amounts = None
            returned = False
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                if meter is not None and returned:
                    amounts = meter(signature.bind(*args, **kwargs).arguments, result)
                spans.append(
                    Span(span_id, name, start, end, outer_start, time.perf_counter_ns(), parent, self.op,
                         threading.get_ident(), amounts)
                )

        return wrapper

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._functions}
        for module in self._modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        for name, cls, method in self._methods:
            self._patch(cls, method, self._wrap(name, vars(cls)[method]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


# Per-layer metrics whose value is not the field "<span>.<field>" of its name.
_SOURCES = {
    "foa.SphereGrid.init_ms": ("foa.SphereGrid", "total_ms"),
    "spatial_metrics.windows_used": ("spatial_metrics.evaluate_windows", "windows_used"),
    "spatial_metrics.windows_skipped": ("spatial_metrics.evaluate_windows", "windows_skipped"),
}
_FIELDS = ("calls", "self_ms", "total_ms", "rows", "mb", "mb_in", "windows_used", "windows_skipped")
POOL_BUSY = "cli.pool_busy_ratio"


def layer_metrics(names, tracer: Tracer, n_ops: int, op_wall_ns: int, jobs: int) -> dict:
    """Per-op value of each per-layer metric in ``names``.

    A metric "<span>.<field>" sums ``field`` over the spans named ``span``;
    a layer the workload never reaches reads 0. ``op_wall_ns`` is the summed
    wall time of the traced ops. Names this module cannot compute, such as a
    span the tracer does not wrap, are left out, for the caller to fill in
    or refuse.
    """
    spans = tracer.spans
    own = self_times(spans)
    totals = {}
    for span in spans:
        t = totals.setdefault(span.name, {"calls": 0, "self_ms": 0.0, "total_ms": 0.0})
        t["calls"] += 1
        t["self_ms"] += own[span.id] / 1e6
        t["total_ms"] += (span.end - span.start) / 1e6
        for key, value in (span.amounts or {}).items():
            t[key] = t.get(key, 0) + value
    values = {}
    for name in names:
        span, field = _SOURCES.get(name) or name.rpartition(".")[::2]
        if span in tracer.span_names and field in _FIELDS:
            values[name] = totals.get(span, {}).get(field, 0) / n_ops
    if POOL_BUSY in names:
        # Busy time of the worker threads: their top-level spans, against the
        # time the pool could have worked.
        busy_ns = sum(s.end - s.start for s in spans if s.parent is None and s.thread != tracer.main_thread)
        values[POOL_BUSY] = busy_ns / (op_wall_ns * jobs)
    return values
