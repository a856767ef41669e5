"""Slot-synchronous simulator for DCF basic access with Poisson arrivals.

The channel advances in virtual slots: sigma when nobody transmits, the
success occupancy when exactly one station transmits, the collision
occupancy otherwise. Backoff counters of non-transmitting contenders
decrement once per virtual slot regardless of its duration, matching the
abstraction used by the analytic model. Arrivals are continuous-time
Poisson per station but take effect at slot boundaries. A packet reaching
an idle station always draws a fresh stage-0 backoff; there is no
immediate-access shortcut. After a collision the window doubles up to
stage m and then stays at w_max until the packet finally gets through
(packets are never dropped for retry count, only for a full queue).

Long idle stretches are compressed: when no counter is at zero the loop
jumps straight to the earliest slot where a counter can expire, an idle
station can receive its next arrival, or the run ends. The jump leaves
the per-station RNG draw order untouched, so results are bit-identical
to the slot-by-slot walk.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass
from statistics import fmean

import numpy as np
from scipy import stats

from .errors import ParameterError
from .params import PhyMacParams, derive_times

_IDLE, _BACKOFF = 0, 1


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario."""

    n_stations: int
    lambda_per_station: float  # packets/us
    params: PhyMacParams
    sim_duration: float = 5e7  # us
    warmup: float = 1e6  # us, excluded from throughput measurement
    replications: int = 10
    base_seed: int = 12345

    def __post_init__(self):
        if self.n_stations < 1:
            raise ParameterError("n_stations must be >= 1")
        if not 0.0 <= self.lambda_per_station < math.inf:
            raise ParameterError("lambda_per_station must be finite and >= 0")
        if self.sim_duration <= 0:
            raise ParameterError("sim_duration must be positive")
        if not 0.0 <= self.warmup < self.sim_duration:
            raise ParameterError("warmup must lie in [0, sim_duration)")
        if self.replications < 1:
            raise ParameterError("replications must be >= 1")
        if self.base_seed < 0:
            raise ParameterError("base_seed must be >= 0")


@dataclass(frozen=True)
class ReplicationResult:
    """Raw counters from a single replication."""

    throughput: float  # bits/us over the post-warmup window
    end_time: float
    successes: int  # all successes, including warmup
    measured_successes: int
    collisions: int  # channel collision events
    collision_participations: int  # station-transmissions inside collisions
    drops: int  # queue-full losses
    arrivals: int
    per_station_arrivals: tuple[int, ...]
    per_station_successes: tuple[int, ...]
    per_station_drops: tuple[int, ...]
    final_queue_lengths: tuple[int, ...]


@dataclass(frozen=True)
class SimResult:
    """Aggregate over replications."""

    mean_throughput: float
    ci95_halfwidth: float  # Student-t, nan for a single replication
    per_replication: tuple[float, ...]
    successes: int
    collisions: int
    drops: int
    arrivals: int


class _Station:
    __slots__ = ("sid", "rng", "queue", "stage", "counter", "mode",
                 "next_arrival", "arrivals", "successes", "drops")

    def __init__(self, sid, rng):
        self.sid = sid
        self.rng = rng
        self.queue = []
        self.stage = 0
        self.counter = 0
        self.mode = _IDLE
        self.next_arrival = math.inf
        self.arrivals = 0
        self.successes = 0
        self.drops = 0


def run_replication(cfg: SimConfig, seed: int,
                    trace=None) -> ReplicationResult:
    """Run one replication from one seed.

    trace, if given, is a path that receives the event log as CSV with
    columns time_us, event, station_id, queue_len (events: arrival,
    success, collision, drop).
    """
    params = cfg.params
    times = derive_times(params)
    t_s, t_c = times.t_s, times.t_c
    sigma = params.slot_sigma
    w0, m_stages = params.w0, params.m
    cap = params.queue_capacity_k
    lam = cfg.lambda_per_station
    duration, warmup = cfg.sim_duration, cfg.warmup
    mean_ia = 1.0 / lam if lam > 0 else math.inf

    streams = np.random.SeedSequence(seed).spawn(cfg.n_stations)
    stations = [_Station(i, np.random.default_rng(s))
                for i, s in enumerate(streams)]
    if lam > 0:
        for st in stations:
            st.next_arrival = st.rng.exponential(mean_ia)

    active = []  # stations currently counting down
    events = [] if trace is not None else None
    successes = 0
    measured = 0
    collisions = 0
    participations = 0
    now = 0.0

    while now < duration:
        for st in stations:
            na = st.next_arrival
            if na <= now:
                queue = st.queue
                rng = st.rng
                while na <= now:
                    st.arrivals += 1
                    if len(queue) >= cap:
                        st.drops += 1
                        if events is not None:
                            events.append((na, "drop", st.sid, len(queue)))
                    else:
                        queue.append(na)
                        if events is not None:
                            events.append((na, "arrival", st.sid, len(queue)))
                        if st.mode == _IDLE:
                            st.mode = _BACKOFF
                            st.stage = 0
                            st.counter = int(rng.integers(0, w0))
                            active.append(st)
                    na += rng.exponential(mean_ia)
                st.next_arrival = na

        txs = [st for st in active if st.counter == 0]
        k = len(txs)
        if k == 1:
            for st in active:
                if st.counter:
                    st.counter -= 1
            st = txs[0]
            if now >= warmup:
                measured += 1
            successes += 1
            st.successes += 1
            st.queue.pop(0)
            if events is not None:
                events.append((now, "success", st.sid, len(st.queue)))
            if st.queue:
                st.stage = 0
                st.counter = int(st.rng.integers(0, w0))
            else:
                st.mode = _IDLE
                active.remove(st)
            now += t_s
        elif k:
            collisions += 1
            participations += k
            for st in active:
                if st.counter:
                    st.counter -= 1
            for st in txs:
                if st.stage < m_stages:
                    st.stage += 1
                st.counter = int(st.rng.integers(0, w0 << st.stage))
                if events is not None:
                    events.append((now, "collision", st.sid, len(st.queue)))
            now += t_c
        else:
            # Idle stretch: jump to the next boundary where anything changes.
            jump = min(st.counter for st in active) if active else -1
            na_idle = math.inf
            for st in stations:
                if st.mode == _IDLE and st.next_arrival < na_idle:
                    na_idle = st.next_arrival
            if na_idle < math.inf:
                j_arr = int(math.ceil((na_idle - now) / sigma))
                if j_arr < 1:
                    j_arr = 1
                if jump < 0 or j_arr < jump:
                    jump = j_arr
            if jump < 0:
                now = duration  # nothing pending and no arrivals ever
                break
            j_end = int(math.ceil((duration - now) / sigma))
            if j_end < 1:
                j_end = 1
            if jump > j_end:
                jump = j_end
            now += jump * sigma
            for st in active:
                st.counter -= jump

    span = now - warmup
    throughput = measured * params.payload_bits / span
    if trace is not None:
        _write_trace(trace, events)
    return ReplicationResult(
        throughput=throughput,
        end_time=now,
        successes=successes,
        measured_successes=measured,
        collisions=collisions,
        collision_participations=participations,
        drops=sum(st.drops for st in stations),
        arrivals=sum(st.arrivals for st in stations),
        per_station_arrivals=tuple(st.arrivals for st in stations),
        per_station_successes=tuple(st.successes for st in stations),
        per_station_drops=tuple(st.drops for st in stations),
        final_queue_lengths=tuple(len(st.queue) for st in stations),
    )


def _write_trace(path, events):
    events.sort(key=lambda e: e[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("time_us", "event", "station_id", "queue_len"))
        for t, kind, sid, qlen in events:
            writer.writerow((format(t, ".10g"), kind, sid, qlen))


def _ci95_halfwidth(values) -> float:
    n = len(values)
    if n < 2:
        return math.nan
    mean = fmean(values)
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    tcrit = stats.t.ppf(0.975, n - 1)
    return tcrit * math.sqrt(var / n)


def run(cfg: SimConfig, trace_dir=None) -> SimResult:
    """Run all replications in turn and aggregate.

    Replication i uses seed base_seed + i, so results are reproducible.
    trace_dir, if given, receives one event CSV per replication.
    """
    traces = [None] * cfg.replications
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        traces = [os.path.join(trace_dir, f"rep{i:03d}.csv")
                  for i in range(cfg.replications)]
    reps = [run_replication(cfg, cfg.base_seed + i, trace=path)
            for i, path in enumerate(traces)]

    throughputs = [r.throughput for r in reps]
    return SimResult(
        mean_throughput=fmean(throughputs),
        ci95_halfwidth=_ci95_halfwidth(throughputs),
        per_replication=tuple(throughputs),
        successes=sum(r.successes for r in reps),
        collisions=sum(r.collisions for r in reps),
        drops=sum(r.drops for r in reps),
        arrivals=sum(r.arrivals for r in reps),
    )
