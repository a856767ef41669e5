"""Tests of the benchmark's own code. Run: python3 -m pytest perfbench -q"""
import json
import re
from pathlib import Path

import pytest

import run
from spans import Span, Tracer, self_times_ns
from summary import PER_LAYER, percentile, repeat_share, samples_beyond
from workloads import WORKLOADS, first_requests

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_metric_names_are_valid_and_match_benchmark_json():
    names = [n for n, _ in run.END_TO_END] + [n for n, _ in PER_LAYER]
    assert len(names) == len(set(names))
    assert all(METRIC_NAME.fullmatch(n) for n in names)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == \
        list(PER_LAYER)
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == \
        sorted(WORKLOADS)


@pytest.mark.parametrize("pct, enough", [(50, 20), (90, 100), (99, 1000)])
def test_percentile_needs_ten_samples_beyond(pct, enough):
    assert samples_beyond(enough, pct) == 10
    assert samples_beyond(enough - 1, pct) == 9
    values = list(range(enough, 0, -1))
    assert percentile(values, pct) == enough - 10
    with pytest.raises(ValueError):
        percentile(values[:-1], pct)


def _span(sid, start, end, parent):
    return Span(sid, f"s{sid}", start, end, parent, 0)


def test_self_time_subtracts_covered_part_of_children():
    spans = [
        _span(0, 0, 100, None),
        _span(1, 10, 40, 0),
        _span(2, 20, 30, 1),
        _span(3, 50, 60, 0),
        _span(4, 55, 70, 0),  # overlaps span 3: covered once
        _span(5, 95, 120, 0),  # runs past its parent: clipped
    ]
    assert self_times_ns(spans) == [100 - 30 - 20 - 5, 20, 10, 10, 15, 25]


def test_tracer_links_children_and_restores_originals():
    class Module:
        @staticmethod
        def inner(x):
            return x + 1

    original = Module.inner
    tracer = Tracer()
    with tracer.patched([(Module, "inner", "inner", lambda r: r)]):
        result = tracer.call("outer", lambda: Module.inner(1) + Module.inner(2))
    assert result == 5
    assert Module.inner is original
    root, first, second = tracer.spans
    assert (root.name, root.parent) == ("outer", None)
    assert [(s.parent, s.note) for s in (first, second)] == [(0, 2), (0, 3)]
    assert all(s.request == 0 for s in tracer.spans)
    assert sum(self_times_ns(tracer.spans)) == root.end_ns - root.start_ns


def test_repeat_share():
    assert repeat_share([3, 1, 3, 3, 2]) == 2 / 5
    assert repeat_share([]) == 0.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_generators_depend_only_on_the_seed(workload):
    a = first_requests(workload, 7, 200)
    assert a == first_requests(workload, 7, 200)
    assert a != first_requests(workload, 8, 200)


def test_curve_sizes_cover_the_range():
    sizes = {r.n for r in first_requests("curve", 1, 5000)}
    assert sizes == set(range(1, 101))
