"""dcfkit benchmark: analytic curve sweeps and light and saturated simulation.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload curve --seed 1 --seconds 15 --trace 0

Workloads are curve, sim-light and sim-saturated (see NOTES.md). With
--trace 0 the run measures the end-to-end metrics with tracing off: cold
start set-up time, request latency and request rate, all scaled to a
reference host speed (gauge.py), peak memory and the share of operations
that succeeded. With --trace 1 it serves each of the workload's first
requests untraced and traced, and reports the per-layer metrics of the
traced requests. Either way every output is checked, and the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from gauge import NOMINAL_NS, SpeedGauge
from program import Program
from spans import Tracer, self_times_ns, write_spans
from summary import (PER_LAYER, layer_metrics, percentile, repeat_share,
                     self_ms_by_layer)
from workloads import WORKLOADS, CurveRequest, first_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"
SETUP_STARTS = 7
SETUP_TIMEOUT_S = 60
MIN_REQUESTS = 100  # p90 needs ten requests beyond it
DIGEST_REQUESTS = 100  # outputs hashed: a fixed prefix every run reaches
SELF_TIME_SLACK = 0.01

END_TO_END = (
    ("setup_s", "s"),
    ("request_ms_p50", "ms"),
    ("request_ms_p90", "ms"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
)


class Tally:
    """Attempted and failed operations, and the first problems seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{label}: {problems[0]}")


def serve(program: Program, req, tracer: Tracer | None = None):
    """Serve one request; returns (elapsed ns, result or raised exception)."""
    name, fn, args = program.target(req)
    start = time.perf_counter_ns()
    try:
        result = fn(*args) if tracer is None else tracer.call(name, fn, *args)
    except Exception as exc:  # a failed request is counted, not fatal
        elapsed = time.perf_counter_ns() - start
        traceback.print_exc()
        return elapsed, exc
    return time.perf_counter_ns() - start, result


def check_request(program: Program, req, result) -> tuple[list[str], bytes]:
    """Problems with one request's output, and the bytes to digest."""
    if isinstance(result, Exception):
        return [f"{type(result).__name__}: {result}"], repr(result).encode()
    if isinstance(req, CurveRequest):
        try:
            data = Path(program.csv_path).read_bytes()
        except FileNotFoundError:
            return [f"exit code {result}, no CSV written"], b""
        return (checks.check_curve(req.n, result, data,
                                   program.params.payload_bits), data)
    counters = (result.per_replication, result.successes, result.collisions,
                result.drops, result.arrivals)
    return (checks.check_sim_result(req, result,
                                    program.params.queue_capacity_k),
            repr(counters).encode())


def serve_and_check(program, req, tally, digest=None, tracer=None):
    Path(program.csv_path).unlink(missing_ok=True)
    elapsed, result = serve(program, req, tracer)
    problems, blob = check_request(program, req, result)
    tally.record(req, problems)
    if digest is not None:
        digest.update(blob)
    return elapsed, (None if problems else result)


def sim_run_checks(program, requests, results, tally) -> None:
    """Checks on a whole simulation run, made outside the timed region."""
    done = [(q, r) for q, r in zip(requests, results) if r is not None]
    if not done:
        return
    req, first = done[0]
    pooled = [t for _, r in done for t in r.per_replication]
    model = program.dcfkit.solve_fixed_point(
        req.lambda_pkt_s * 1e-6, req.n, program.params).throughput
    tally.record("model vs sim", checks.check_model_in_band(pooled, model))

    cap = program.params.queue_capacity_k
    cfg = program.sim_config(req)
    reps = [program.sim.run_replication(cfg, req.base_seed + i)
            for i in range(req.replications)]
    problems = [p for rep in reps for p in checks.check_replication(rep, cap)]
    if tuple(rep.throughput for rep in reps) != first.per_replication:
        problems.append("run() throughputs differ from run_replication()")
    tally.record("replications of the first request", problems)
    again = program.sim.run_replication(cfg, req.base_seed)
    tally.record("determinism", [] if again == reps[0] else
                 ["rerun on the same seed gave another ReplicationResult"])


def measure_setup(workload: str, seed: int, tally: Tally) -> float:
    """Median time of fresh interpreters serving the first request, each
    scaled to the reference speed by kernel samples taken around it."""
    gauge = SpeedGauge()
    gauge.sample()
    times = []
    for _ in range(SETUP_STARTS):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed), str(WORK_DIR)],
            cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=SETUP_TIMEOUT_S, check=False)
        elapsed = time.perf_counter() - start
        gauge.sample()
        times.append(elapsed * gauge.scale())
        tally.record("cold start", [] if proc.returncode == 0 else [
            f"exit code {proc.returncode}: "
            f"{proc.stderr.decode(errors='replace')[-300:]}"])
    return statistics.median(times)


def end_to_end(program, workload, seed, seconds, tally) -> dict:
    setup_s = measure_setup(workload, seed, tally)
    stream = WORKLOADS[workload].requests(seed)
    digest = hashlib.sha256()
    gauge = SpeedGauge()
    gauge.sample()
    requests, raw, scaled, results = [], [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or len(requests) < MIN_REQUESTS):
        req = next(stream)
        elapsed, result = serve_and_check(
            program, req, tally,
            digest if len(requests) < DIGEST_REQUESTS else None)
        gauge.sample()
        requests.append(req)
        raw.append(elapsed)
        scaled.append(elapsed * gauge.scale())
        results.append(result)
    busy_s = sum(scaled) / 1e9
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if isinstance(requests[0], CurveRequest):
        keys = [q.n for q in requests]
        print(f"info points_per_s "
              f"{checks.AUTO_GRID_POINTS * len(requests) / busy_s:.1f}")
        print(f"info curve.repeat_share {repeat_share(keys):.4f} "
              f"over {len(keys)} requests")
    else:
        sim_s = sum(q.replications * q.duration_us for q in requests) / 1e6
        print(f"info sim_s_per_host_s {sim_s / busy_s:.2f}")
        sim_run_checks(program, requests, results, tally)
    print(f"info requests {len(requests)}, unscaled p50 "
          f"{percentile(raw, 50) / 1e6:.3f} ms, p90 "
          f"{percentile(raw, 90) / 1e6:.3f} ms, {sum(raw) / 1e9:.3f} s busy")
    print(f"info reference kernel median "
          f"{statistics.median(gauge.samples) / 1e6:.4f} ms, nominal "
          f"{NOMINAL_NS / 1e6:.4f} ms")
    print(f"digest {workload} seed={seed} requests={DIGEST_REQUESTS} "
          f"sha256={digest.hexdigest()}")
    return {
        "setup_s": setup_s,
        "request_ms_p50": percentile(scaled, 50) / 1e6,
        "request_ms_p90": percentile(scaled, 90) / 1e6,
        "requests_per_s": len(requests) / busy_s,
        "peak_rss_mb": rss_mb,
        "ok_share": (tally.attempted - tally.failed) / tally.attempted,
    }


def traced_run(program, workload, seed, tally) -> dict:
    """Serve each of the first requests twice, untraced and traced.

    The order of the two alternates, so that host speed swings and warm
    caches weigh on both alike.
    """
    requests = first_requests(workload, seed,
                              WORKLOADS[workload].traced_requests)
    digest = hashlib.sha256()
    tracer = Tracer()
    targets = program.trace_targets()
    untraced_ns = traced_ns = 0
    results = []
    for i, req in enumerate(requests):
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                with tracer.patched(targets):
                    elapsed, _ = serve_and_check(program, req, tally,
                                                 tracer=tracer)
                traced_ns += elapsed
            else:
                elapsed, result = serve_and_check(program, req, tally, digest)
                untraced_ns += elapsed
                results.append(result)

    spans = tracer.spans
    selfs = self_times_ns(spans)
    write_spans(spans, WORK_DIR / f"spans-{workload}-seed{seed}.csv")
    # Self times partition the traced requests' time, so they may differ
    # from the untraced time by no more than the tracing overhead.
    gap = abs(sum(selfs) - untraced_ns)
    tally.record("self-time coverage", [] if gap <= abs(
        traced_ns - untraced_ns) + SELF_TIME_SLACK * untraced_ns else [
        f"self times {sum(selfs) / 1e6:.1f} ms vs untraced "
        f"{untraced_ns / 1e6:.1f} ms"])

    if isinstance(requests[0], CurveRequest):
        share = repeat_share([q.n for q in requests])
    else:
        share = 0.0
        sim_run_checks(program, requests, results, tally)
        cap = program.params.queue_capacity_k
        tally.record("traced replications", [
            p for s in spans if s.name == "sim.run_replication"
            for p in checks.check_replication(s.note, cap)])

    by_layer = self_ms_by_layer(spans, selfs)
    total = sum(by_layer.values())
    for layer, ms in sorted(by_layer.items()):
        print(f"info self_ms {layer} {ms:.3f} ({ms / total:.1%})")
    print(f"info untraced {untraced_ns / 1e6:.3f} ms, traced "
          f"{traced_ns / 1e6:.3f} ms, {len(spans)} spans")
    print(f"digest {workload} seed={seed} requests={len(requests)} "
          f"sha256={digest.hexdigest()}")
    return layer_metrics(spans, selfs, untraced_ns, traced_ns, share)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    WORK_DIR.mkdir(exist_ok=True)
    try:
        program = Program(ROOT, WORK_DIR)
    except ImportError as exc:
        print(f"error: cannot import dcfkit from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2

    tally = Tally()
    if args.trace:
        values = traced_run(program, args.workload, args.seed, tally)
        units = PER_LAYER
    else:
        values = end_to_end(program, args.workload, args.seed, args.seconds,
                            tally)
        units = END_TO_END
    for problem in tally.problems:
        print(f"FAILED {problem}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units}
    for name, m in metrics.items():
        print(f"metric {name} {m['value']} {m['unit']}")
    print(f"fail_share {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted} operations)")
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
