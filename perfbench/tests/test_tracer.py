"""Span bookkeeping and the metric lists in BENCHMARK.json."""

import json
from pathlib import Path

import numpy as np

import tracer

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_subtracts_children_and_counts():
    rec = tracer.SpanRecorder()
    clock = iter(range(100))
    tracer.time.perf_counter, real = (lambda: float(next(clock))), tracer.time.perf_counter
    try:
        inner = rec.wrap(lambda n: n, "inner", count=lambda a, k, r: (r, 0))
        outer = rec.wrap(lambda: inner(7) + inner(5), "outer")
        outer()
    finally:
        tracer.time.perf_counter = real
    rows = np.array(rec.rows, dtype=float)
    names = rec.names
    selft = tracer.self_times(rows)
    by_name = {n: selft[rows[:, 0] == names.index(n)].sum() for n in names}
    # outer spans clock 0..9; each inner call spans 1 tick, its count 1 tick
    assert by_name["outer"] == 9 - 2 - 2
    assert rows[rows[:, 0] == names.index("inner"), 4].tolist() == [7, 5]


def test_benchmark_json_lists_every_metric():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    assert per_layer == tracer.PER_LAYER
    assert [m["name"] for m in doc["end_to_end"]] == ["setup_s", "pipeline_s", "peak_rss_mb"]


def test_missing_names_and_changed_signatures_read_zero():
    tracer._install("strateval.cli", "no_such_function", lambda fn: fn)  # skipped, no error
    tracer._install("no_such_module", "x", lambda fn: fn)
    rec = tracer.SpanRecorder()
    traced = rec.wrap(lambda **kw: 1, "simulate.run_mc.{design}", count=lambda a, k, r: (k["reps"], 0))
    traced()  # neither the tag nor the counted keyword is passed
    rows = np.array(rec.rows, dtype=float)
    assert rec.names[int(rows[0, 0])] == "simulate.run_mc"
    assert rows[0, 4] == 0
