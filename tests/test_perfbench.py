"""The benchmark's per-layer metrics name spans that its tracer wraps.

Renaming or deleting a traced public function would otherwise show only
when ``perfbench/run.py --trace 1`` refuses the metric.
"""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
# Ratios that perfbench computes itself rather than reading them off a span.
COMPUTED = {"cli.pool_busy_ratio", "trace.overhead_ratio"}


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing

    return tracing


def test_per_layer_metrics_resolve_to_traced_spans(tracing):
    _, functions, methods = tracing._targets()
    spans = {name for name, _ in functions} | {name for name, _, _ in methods}
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert COMPUTED <= set(names)
    unresolved = []
    for name in set(names) - COMPUTED:
        span, field = tracing._SOURCES.get(name) or name.rpartition(".")[::2]
        if span not in spans or field not in tracing._FIELDS:
            unresolved.append(name)
    assert sorted(unresolved) == []
