"""Percentiles and the per-layer metrics computed from a traced pass."""
from __future__ import annotations

import math
from fractions import Fraction
from statistics import median

from spans import Span

# Metrics of a traced run, with units. Layers are the dcfkit modules.
PER_LAYER = (
    ("cli.main.self_ms", "ms"),
    ("regime.critical_lambda.calls", "count"),
    ("regime.critical_lambda.p50_us", "us"),
    ("model.solve_fixed_point.calls", "count"),
    ("model.solve_fixed_point.p50_us", "us"),
    ("model.solve_fixed_point.p99_us", "us"),
    ("model.iterations_total", "count"),
    ("model.iterations_max", "count"),
    ("params.derive_times.calls", "count"),
    ("sim.run_replication.calls", "count"),
    ("sim.run_replication.p50_ms", "ms"),
    ("sim.events", "count"),
    ("sim.arrivals", "count"),
    ("sim.drops", "count"),
    ("sim.host_ns_per_event", "ns"),
    ("sim.run.aggregate_self_ms", "ms"),
    ("sim.useful_tx_share", "ratio"),
    ("sim.drop_share", "ratio"),
    ("curve.repeat_share", "ratio"),
    ("trace.overhead_share", "ratio"),
)


def samples_beyond(count: int, pct) -> int:
    """Samples strictly above the nearest-rank pct-th percentile."""
    return count - math.ceil(Fraction(str(pct)) * count / 100)


def percentile(values, pct):
    """Nearest-rank percentile; requires ten samples beyond it."""
    count = len(values)
    if samples_beyond(count, pct) < 10:
        raise ValueError(f"p{pct} needs ten samples beyond it; "
                         f"{count} samples give {samples_beyond(count, pct)}")
    rank = math.ceil(Fraction(str(pct)) * count / 100)
    return sorted(values)[max(rank, 1) - 1]


def _share(part, whole):
    return part / whole if whole else 0.0


def layer_metrics(spans: list[Span], selfs: list[int], untraced_ns: int,
                  traced_ns: int, repeat_share: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over a fixed request list.

    selfs are the spans' self times. Times of a layer the workload never
    calls read 0.
    """
    by_name: dict[str, list[int]] = {}
    self_by_name: dict[str, list[int]] = {}
    for span, own in zip(spans, selfs):
        by_name.setdefault(span.name, []).append(span.end_ns - span.start_ns)
        self_by_name.setdefault(span.name, []).append(own)

    def med(values, scale):
        return median(values) / scale if values else 0.0

    solves = [s.note for s in spans if s.name == "model.solve_fixed_point"]
    reps = [s.note for s in spans if s.name == "sim.run_replication"]
    solve_ns = by_name.get("model.solve_fixed_point", [])
    rep_ns = by_name.get("sim.run_replication", [])
    successes = sum(r.successes for r in reps)
    collisions = sum(r.collisions for r in reps)
    participations = sum(r.collision_participations for r in reps)
    arrivals = sum(r.arrivals for r in reps)
    drops = sum(r.drops for r in reps)
    events = successes + collisions
    return {
        "cli.main.self_ms": med(self_by_name.get("cli.main", []), 1e6),
        "regime.critical_lambda.calls":
            len(by_name.get("regime.critical_lambda", [])),
        "regime.critical_lambda.p50_us":
            med(by_name.get("regime.critical_lambda", []), 1e3),
        "model.solve_fixed_point.calls": len(solve_ns),
        "model.solve_fixed_point.p50_us": med(solve_ns, 1e3),
        "model.solve_fixed_point.p99_us":
            percentile(solve_ns, 99) / 1e3 if solve_ns else 0.0,
        "model.iterations_total": sum(solves),
        "model.iterations_max": max(solves, default=0),
        "params.derive_times.calls": len(by_name.get("params.derive_times", [])),
        "sim.run_replication.calls": len(rep_ns),
        "sim.run_replication.p50_ms": med(rep_ns, 1e6),
        "sim.events": events,
        "sim.arrivals": arrivals,
        "sim.drops": drops,
        "sim.host_ns_per_event": _share(sum(rep_ns), events),
        "sim.run.aggregate_self_ms": med(self_by_name.get("sim.run", []), 1e6),
        "sim.useful_tx_share": _share(successes, successes + participations),
        "sim.drop_share": _share(drops, arrivals),
        "curve.repeat_share": repeat_share,
        "trace.overhead_share": traced_ns / untraced_ns - 1.0,
    }


def self_ms_by_layer(spans: list[Span], selfs: list[int]) -> dict[str, float]:
    """Total self time per layer, the layer being the span name's prefix."""
    out: dict[str, float] = {}
    for span, own in zip(spans, selfs):
        layer = span.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own / 1e6
    return out


def repeat_share(keys) -> float:
    """Share of keys that already appeared earlier in the sequence."""
    seen = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return _share(repeats, len(keys))
