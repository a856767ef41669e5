"""Slot-synchronous simulator for DCF basic access with Poisson arrivals.

The channel advances in virtual slots: sigma when nobody transmits, the
success occupancy when exactly one station transmits, the collision
occupancy otherwise. Backoff counters of non-transmitting contenders
decrement once per virtual slot regardless of its duration, matching the
abstraction used by the analytic model. Arrivals are continuous-time
Poisson per station but take effect at slot boundaries. A packet reaching
an idle station always draws a fresh stage-0 backoff; there is no
immediate-access shortcut. One rule follows every transmission: a success
resets the stage to 0, and a collision doubles the window up to stage m.
A collision at stage m was the packet's last attempt, so the packet is
dropped and the stage returns to 0, as in the model, whose chain has
stages 0..m only: the finite-retry rule of Wu et al. (INFOCOM 2002). A
station with a backlog then draws a backoff from its stage's window.

The loop is event-driven, so its work per channel event follows the
transmitters, not the number of stations. One global index counts
virtual slots, and a backoff is stored as the slot it expires in: a
counter c drawn by a fresh arrival at slot vs expires at vs + c, one
drawn after a transmission at vs + 1 + c. A heap of keys slot * n + sid,
ordered as (slot, sid) since sid < n, yields the transmitters of slot
vs, the keys below (vs + 1) * n; a second heap holds the next arrival of
each idle station. An idle stretch is one jump to the earliest of the next
expiry, the next idle arrival and the end of the run, so every run, one
at lambda = 0 too, ends at the first virtual-slot boundary at or past
sim_duration. A busy slot pops its first key; when no second key lies
below (vs + 1) * n, its station succeeds alone and is served inline,
and only a collision builds the list of its transmitters. A success is
about 99% of channel events at light load. A contending station's
arrivals only change its backlog and drops, so they are taken just
before its next backoff draw and, at the end of the run, up to the
start of the run's last virtual slot.

Each station draws from its own stdlib random.Random, seeded by the text
"seed/sid" of the replication seed and its station id, with CPython's
expovariate and randrange written out over random() and getrandbits():
-log(1 - random()) / lambda for inter-arrival times and, for a backoff
counter in window w, getrandbits(w.bit_length()) drawn again while >= w.
So the streams depend only on the C-level Mersenne Twister. A station
draws in the order of the plain slot-by-slot walk, so results are
bit-identical to that walk where sigma, t_s and t_c are whole
microseconds, as on dot11g-54, and an idle jump sums as its single slots
do: tests/oracles.py::slot_walk is the walk, and
tests/test_sim.py::TestProperties::test_matches_the_slot_walk holds the
simulator to it.

Trace rows are ordered by time and then station id; the stations of one
collision share a timestamp.
"""
from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, fields
from heapq import heapify, heappop, heappush
from math import log
from operator import attrgetter

from .model import _brentq
from .params import (ParameterError, PhyMacParams, _check_n,
                     _check_number_fields, _check_params, _check_rate,
                     derive_times)


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario; the CLI's settings default to these."""

    n_stations: int
    lambda_per_station: float  # packets/us
    params: PhyMacParams
    sim_duration: float = 5e6  # us
    warmup: float = 5e5  # us, excluded from throughput measurement
    replications: int = 5
    base_seed: int = 12345

    def __post_init__(self):
        _check_number_fields(self)
        _check_params(self.params)
        _check_n(self.n_stations, "n_stations")
        _check_rate(self.lambda_per_station, "lambda_per_station",
                    finite=True)
        if not 0.0 < self.sim_duration < math.inf:
            raise ParameterError("sim_duration must be finite and positive")
        # The idle jump counts slots of slot_sigma up to sim_duration.
        try:
            slots = self.sim_duration / self.params.slot_sigma
        except OverflowError:  # an int sim_duration past the float range
            slots = math.inf
        if slots == math.inf:
            raise ParameterError(
                "sim_duration / params.slot_sigma must be finite, got "
                f"{self.sim_duration!r} / {self.params.slot_sigma!r}")
        if not 0.0 <= self.warmup < self.sim_duration:
            raise ParameterError("warmup must lie in [0, sim_duration)")
        _check_n(self.replications, "replications")
        _check_n(self.base_seed, "base_seed", least=0)


# The counters each station keeps, one per_station_ tuple each.
_STATION_COUNTERS = ("arrivals", "successes", "drops", "retry_drops")


@dataclass(frozen=True)
class ReplicationResult:
    """Raw counters from a single replication. Its arrivals, successes
    (warmup included), drops and retry_drops are read-only sums of
    per_station_*."""

    throughput: float  # bits/us over the post-warmup window
    end_time: float
    measured_successes: int
    collisions: int  # channel collision events
    collision_participations: int  # station-transmissions inside collisions
    virtual_slots: int  # idle, success and collision slots
    per_station_arrivals: tuple[int, ...]
    per_station_successes: tuple[int, ...]
    per_station_drops: tuple[int, ...]  # queue-full and retry-limit losses
    per_station_retry_drops: tuple[int, ...]  # retry-limit losses
    final_queue_lengths: tuple[int, ...]


@dataclass(frozen=True)
class SimResult:
    """The replications of one run. Everything else is a read-only view of
    them: per_replication, mean_throughput, ci95_halfwidth (Student-t, None
    for a single replication), sim_time (us, the fsum of end_time) and each
    integer counter of ReplicationResult, summed."""

    replications: tuple[ReplicationResult, ...]

    per_replication = property(
        lambda self: tuple(r.throughput for r in self.replications))
    mean_throughput = property(
        lambda self: math.fsum(self.per_replication) / len(self.replications))
    ci95_halfwidth = property(
        lambda self: _ci95_halfwidth(self.per_replication))
    sim_time = property(
        lambda self: math.fsum(r.end_time for r in self.replications))


for _name in _STATION_COUNTERS:
    setattr(ReplicationResult, _name, property(
        lambda self, get=attrgetter("per_station_" + _name): sum(get(self))))
for _name in [f.name for f in fields(ReplicationResult)
              if f.type in (int, "int")] + list(_STATION_COUNTERS):
    setattr(SimResult, _name, property(
        lambda self, get=attrgetter(_name): sum(map(get, self.replications))))


class _Station:
    # backlog counts queued packets; a station contends exactly when it is
    # nonzero and is idle otherwise.
    __slots__ = ("sid", "random", "getrandbits", "backlog", "stage",
                 "next_arrival") + _STATION_COUNTERS

    def __init__(self, sid, rng):
        self.sid = sid
        self.random = rng.random
        self.getrandbits = rng.getrandbits
        self.backlog = 0
        self.stage = 0
        self.next_arrival = math.inf
        for name in _STATION_COUNTERS:
            setattr(self, name, 0)


def _station_rng(seed, sid):
    """The RNG stream of station sid in the replication seeded by seed.

    The text "seed/sid" is an injective key for any two integers, however
    large, and random.Random seeds from all of its bytes.
    """
    return random.Random(f"{seed}/{sid}")


def run_replication(cfg: SimConfig, seed: int,
                    trace=None) -> ReplicationResult:
    """Run one replication from one seed.

    trace, if given, is a path that receives the event log as CSV with
    columns time_us, event, station_id, queue_len (events: arrival,
    success, collision, drop, retry_drop), ordered by time and then
    station_id. A retry_drop row follows its station's collision row, and
    both give the queue after the drop. seed is an integer >= 0, as
    base_seed is: the streams are keyed by its text, where 1.0 is not 1.
    """
    seed = _check_n(seed, "seed", least=0)
    params = cfg.params
    times = derive_times(params)
    t_s, t_c = times.t_s, times.t_c
    sigma = params.slot_sigma
    w0, m_stages = params.w0, params.m
    cap = params.queue_capacity_k
    lam = cfg.lambda_per_station
    duration, warmup = cfg.sim_duration, cfg.warmup
    n = cfg.n_stations
    # (window, getrandbits width) of each stage's randrange(window)
    windows = [(w0 << i, (w0 << i).bit_length()) for i in range(m_stages + 1)]
    k0 = windows[0][1]  # stage 0's width; its window is w0

    stations = [_Station(i, _station_rng(seed, i)) for i in range(n)]
    idle = []  # (next arrival, sid) of stations with no backlog
    if lam > 0:
        for st in stations:  # expovariate(lam)
            st.next_arrival = -log(1.0 - st.random()) / lam
        idle = [(st.next_arrival, st.sid) for st in stations]
        heapify(idle)
    expiry = []  # slot * n + sid of each contender's next transmission
    events = [] if trace is not None else None

    def admit(st, now, vs):
        # Takes the station's arrivals up to now, in its own draw order. A
        # packet reaching an empty queue draws a fresh stage-0 backoff; the
        # stage is already 0, since a queue only empties on a success or a
        # retry drop.
        na, random = st.next_arrival, st.random
        while na <= now:
            st.arrivals += 1
            if st.backlog >= cap:
                st.drops += 1
                if events is not None:
                    events.append((na, "drop", st.sid, st.backlog))
            else:
                st.backlog += 1
                if events is not None:
                    events.append((na, "arrival", st.sid, st.backlog))
                if st.backlog == 1:
                    w, k = windows[0]
                    r = st.getrandbits(k)
                    while r >= w:
                        r = st.getrandbits(k)
                    heappush(expiry, (vs + r) * n + st.sid)
            na += -log(1.0 - random()) / lam
        st.next_arrival = na

    measured = 0
    collisions = 0
    participations = 0
    vs = 0  # virtual slots elapsed
    now = last = 0.0

    while now < duration:
        last = now
        while idle and idle[0][0] <= now:
            admit(stations[heappop(idle)[1]], now, vs)

        top = (vs + 1) * n  # the keys of slot vs lie below it
        if expiry and expiry[0] < top:
            jump = 0  # no idle stretch ends the run here
            st = stations[heappop(expiry) % n]
            if not expiry or expiry[0] >= top:  # a lone transmitter succeeds
                if st.next_arrival <= now:
                    admit(st, now, vs)
                st.successes += 1
                st.backlog -= 1
                st.stage = 0
                if events is not None:
                    events.append((now, "success", st.sid, st.backlog))
                if st.backlog:
                    r = st.getrandbits(k0)
                    while r >= w0:
                        r = st.getrandbits(k0)
                    heappush(expiry, (vs + 1 + r) * n + st.sid)
                else:
                    heappush(idle, (st.next_arrival, st.sid))
                if now >= warmup:
                    measured += 1
                now += t_s
            else:
                txs = [st]
                while expiry and expiry[0] < top:
                    txs.append(stations[heappop(expiry) % n])
                for st in txs:
                    if st.next_arrival <= now:
                        admit(st, now, vs)
                    if st.stage < m_stages:
                        st.stage += 1
                    else:  # the packet's last attempt failed
                        st.retry_drops += 1
                        st.drops += 1
                        st.backlog -= 1
                        st.stage = 0
                    if events is not None:
                        events.append((now, "collision", st.sid, st.backlog))
                        if not st.stage:
                            events.append(
                                (now, "retry_drop", st.sid, st.backlog))
                    if st.backlog:
                        w, k = windows[st.stage]
                        r = st.getrandbits(k)
                        while r >= w:
                            r = st.getrandbits(k)
                        heappush(expiry, (vs + 1 + r) * n + st.sid)
                    else:
                        heappush(idle, (st.next_arrival, st.sid))
                collisions += 1
                participations += len(txs)
                now += t_c
            vs += 1
        else:
            # Idle stretch: jump to the next slot where a backoff expires,
            # an idle station can receive its next packet, or the run ends.
            # The wake time lies past now, so its ceiling is >= 1; an
            # arrival time that overflowed to inf wakes at the end. Plain
            # comparisons pick what min would: a builtin min call costs
            # about ten of them, and this runs twice per idle stretch.
            wake = duration
            if idle and idle[0][0] < wake:
                wake = idle[0][0]
            jump = math.ceil((wake - now) / sigma)
            if expiry:
                nxt = expiry[0] // n - vs
                if nxt < jump:
                    jump = nxt
            now += jump * sigma
            vs += jump

    if jump:  # a final idle stretch's last slot starts jump - 1 past last
        last += (jump - 1) * sigma
    for key in expiry:  # arrivals contenders have not taken, up to last
        admit(stations[key % n], last, vs)
    span = now - warmup
    throughput = measured * params.payload_bits / span
    if trace is not None:
        _write_trace(trace, events)
    return ReplicationResult(
        throughput=throughput,
        end_time=now,
        measured_successes=measured,
        collisions=collisions,
        collision_participations=participations,
        virtual_slots=vs,
        final_queue_lengths=tuple(st.backlog for st in stations),
        **{f"per_station_{name}": tuple(getattr(st, name) for st in stations)
           for name in _STATION_COUNTERS},
    )


def _write_trace(path, events):
    events.sort(key=lambda e: (e[0], e[2]))
    # One line per event, written as cli writes its tables; no cell needs
    # quoting.
    lines = ["%.10g,%s,%d,%d\n" % e for e in events]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("time_us,event,station_id,queue_len\n" + "".join(lines))


def _t_tail(t, df):
    """P(T > t) for Student's t with integer df >= 1, t >= 0.

    The finite sums of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4
    (even df) in theta = atan(t / sqrt(df)). Each term carries a factor
    cos^2 theta; it is applied as 1 - sin^2 theta, with sin^2 theta small
    near the 97.5% quantile, so a rounding of cos^2 theta does not compound
    over the df/2 terms, and fsum adds them exactly. For odd df the tail
    takes pi/2 - theta as atan(sqrt(df) / t), which makes df = 1 exact to
    rounding.
    """
    x = t * t / df
    s2 = x / (1.0 + x)  # sin^2 theta
    odd = df % 2
    term = math.sqrt(s2 * (1.0 - s2) if odd else s2)
    terms = []
    for i in range(df // 2):
        terms.append(term)
        term = (term - term * s2) * (2 * i + 1 + odd) / (2 * i + 2 + odd)
    if odd:
        return (math.atan(math.sqrt(df) / t) - math.fsum(terms)) / math.pi
    return (1.0 - math.fsum(terms)) / 2.0


def _t975(df):
    """The 97.5% quantile of Student's t with integer df >= 1.

    It lies in [1.96, 12.71] for every df, so Brent's method on [1.9, 13]
    finds it with the model's tolerances.
    """
    t, _, _ = _brentq(lambda t: _t_tail(t, df) - 0.025, 1.9, 13.0)
    return t


def _ci95_halfwidth(values) -> float | None:
    n = len(values)
    if n < 2:
        return None
    mean = math.fsum(values) / n
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    # The Student-t quantile is computed in the package, so a run of any
    # size needs only the standard library.
    return _t975(n - 1) * math.sqrt(var / n)


def run(cfg: SimConfig, trace_dir=None) -> SimResult:
    """Run all replications in turn; the SimResult keeps their records.

    Replication i uses seed base_seed + i, so results are reproducible.
    trace_dir, if given, receives one event CSV per replication.
    """
    traces = [None] * cfg.replications
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
        traces = [os.path.join(trace_dir, f"rep{i:03d}.csv")
                  for i in range(cfg.replications)]
    return SimResult(tuple(run_replication(cfg, cfg.base_seed + i, trace=path)
                           for i, path in enumerate(traces)))
