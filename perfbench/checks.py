"""Correctness checks on the program's outputs.

Each check returns a list of problems; an empty list means the output is
correct. A request with any problem counts as a failed operation.
"""
from __future__ import annotations

import csv
import math
from statistics import fmean, stdev

from scipy import stats

SWEEP_HEADER = ["n", "lambda_pkt_s", "s_model_mbps", "s_linear_mbps",
                "s_max_mbps", "regime", "s_sim_mbps", "sim_ci95_mbps", "error"]
AUTO_GRID_POINTS = 25
AUTO_GRID_TOP = 5.0  # the auto grid ends at 5 lambda_c
IDENTITY_TOL = 1e-9
LINEAR_TOL = 0.05
LINEAR_UP_TO = 0.5  # check the linear law at rates up to 0.5 lambda_c
REFERENCE_TOL = 0.05
# S_m in Mbps and lambda_c in pkt/s from the source paper's reference table.
PAPER_REFERENCE = {10: (9.118, 111.2), 20: (8.73, 53.235), 30: (8.608, 34.99)}
BAND_SHARE = 0.05  # the model may sit 5% of the sim mean outside the 95% CI


def _rel(a, b):
    return abs(a - b) / abs(b)


def check_curve(n: int, code: int, data: bytes, payload_bits: int) -> list[str]:
    """Check one auto-grid sweep CSV for network size n."""
    problems = [f"exit code {code}"] if code != 0 else []
    lines = data.decode("utf-8").splitlines()
    rows = list(csv.reader(lines))
    if not rows or rows[0] != SWEEP_HEADER:
        return problems + ["missing or unexpected CSV header"]
    rows = rows[1:]
    if len(rows) != AUTO_GRID_POINTS:
        problems.append(f"{len(rows)} rows, expected {AUTO_GRID_POINTS}")
    errors = [r[8] for r in rows if r[8]]
    if errors:
        return problems + [f"error column: {errors[0]}"]
    if not rows:
        return problems
    if any(int(r[0]) != n for r in rows):
        problems.append(f"rows for another n than {n}")
    lam = [float(r[1]) for r in rows]
    s_model = [float(r[2]) for r in rows]
    s_linear = [float(r[3]) for r in rows]
    s_max = float(rows[0][4])
    lambda_c = lam[-1] / AUTO_GRID_TOP  # pkt/s
    if _rel(lambda_c * 1e-6 * n * payload_bits, s_max) > IDENTITY_TOL:
        problems.append("lambda_c * N * E[PL] differs from S_m")
    # N = 1 has no interior throughput maximum: its lambda_c is a supremum
    # at the search edge, so rates below it need not follow the linear law.
    if n >= 2:
        for x, sm, sl in zip(lam, s_model, s_linear):
            if x <= LINEAR_UP_TO * lambda_c and _rel(sm, sl) > LINEAR_TOL:
                problems.append(f"linear-law error {_rel(sm, sl):.3f} "
                                f"at {x:g} pkt/s")
                break
    if n in PAPER_REFERENCE:
        ref_s, ref_lam = PAPER_REFERENCE[n]
        if _rel(s_max, ref_s) > REFERENCE_TOL:
            problems.append(f"S_m {s_max:.4f} vs paper {ref_s}")
        if _rel(lambda_c, ref_lam) > REFERENCE_TOL:
            problems.append(f"lambda_c {lambda_c:.4f} vs paper {ref_lam}")
    return problems


def check_sim_result(request, result, queue_capacity: int) -> list[str]:
    """Check the aggregate counters returned by one sim.run call."""
    problems = []
    if len(result.per_replication) != request.replications:
        problems.append(f"{len(result.per_replication)} replications, "
                        f"expected {request.replications}")
    if not all(math.isfinite(t) and t > 0 for t in result.per_replication):
        problems.append("non-positive or non-finite replication throughput")
    backlog = result.arrivals - result.successes - result.drops
    if not 0 <= backlog <= request.n * queue_capacity * request.replications:
        problems.append(f"arrivals - successes - drops = {backlog} does not "
                        f"fit in the queues")
    return problems


def check_replication(rep, queue_capacity: int) -> list[str]:
    """Per-station packet conservation and queue bounds of one replication."""
    problems = []
    for sid, (a, s, d, q) in enumerate(zip(
            rep.per_station_arrivals, rep.per_station_successes,
            rep.per_station_drops, rep.final_queue_lengths)):
        if a != s + d + q:
            problems.append(f"station {sid}: arrivals {a} != successes {s} "
                            f"+ drops {d} + queue {q}")
        if q > queue_capacity:
            problems.append(f"station {sid}: queue {q} > {queue_capacity}")
    if rep.arrivals != sum(rep.per_station_arrivals) or \
            rep.drops != sum(rep.per_station_drops) or \
            rep.successes != sum(rep.per_station_successes):
        problems.append("totals differ from the per-station sums")
    return problems


def check_model_in_band(throughputs, model: float) -> list[str]:
    """Model inside the replications' 95% CI widened by 5% of their mean."""
    if len(throughputs) < 2:
        return ["fewer than two replications to compare the model with"]
    mean = fmean(throughputs)
    n = len(throughputs)
    halfwidth = stats.t.ppf(0.975, n - 1) * stdev(throughputs) / math.sqrt(n)
    band = halfwidth + BAND_SHARE * mean
    if abs(model - mean) > band:
        return [f"model {model:.4f} Mbps outside sim {mean:.4f} +/- "
                f"{band:.4f} Mbps ({n} replications)"]
    return []
