"""Seeded request streams for the benchmark workloads.

Every stream is a pure function of its seed: the same seed yields the same
requests, and the program under test receives only these requests. This
module uses the standard library alone, so the inputs do not depend on the
code being measured.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator

# Per-station critical rate lambda_c in pkt/s for the dot11g-54 profile, as
# dcfkit.critical_lambda computed it when the benchmark was defined. Kept as
# constants so that a change to the model cannot move the simulated load.
LAMBDA_C_PKT_S = {10: 110.59363944853463, 50: 20.643151975851993}

CURVE_N_RANGE = (1, 100)


@dataclass(frozen=True)
class CurveRequest:
    """One `dcfkit sweep --n N --lambda-grid auto` request."""

    n: int

    def argv(self, out_path: str) -> list[str]:
        return ["sweep", "--n", str(self.n), "--lambda-grid", "auto",
                "--out", out_path]


@dataclass(frozen=True)
class SimRequest:
    """One `dcfkit.sim.run` call: several replications at one load."""

    n: int
    lambda_pkt_s: float
    replications: int
    duration_us: float
    warmup_us: float
    base_seed: int


def curve_requests(seed: int) -> Iterator[CurveRequest]:
    """Network sizes drawn with replacement from 1..100."""
    rng = random.Random(seed)
    lo, hi = CURVE_N_RANGE
    while True:
        yield CurveRequest(n=rng.randint(lo, hi))


def _sim_requests(seed, n, load, replications, duration_us, warmup_us):
    rng = random.Random(seed)
    lam = load * LAMBDA_C_PKT_S[n]
    while True:
        yield SimRequest(n=n, lambda_pkt_s=lam, replications=replications,
                         duration_us=duration_us, warmup_us=warmup_us,
                         base_seed=rng.randrange(2 ** 31))


def sim_light_requests(seed: int) -> Iterator[SimRequest]:
    """N = 10 at 0.3 lambda_c: stations idle most of the time."""
    return _sim_requests(seed, n=10, load=0.3, replications=4,
                         duration_us=2e6, warmup_us=2e5)


def sim_saturated_requests(seed: int) -> Iterator[SimRequest]:
    """N = 50 at 3 lambda_c: queues fill after about 1.2 simulated seconds."""
    return _sim_requests(seed, n=50, load=3.0, replications=2,
                         duration_us=3e6, warmup_us=1e6)


@dataclass(frozen=True)
class Workload:
    name: str
    requests: Callable[[int], Iterator]
    # Requests in each pass of a traced run. Fixed, so that the exact counts
    # a traced run reports repeat for a given seed.
    traced_requests: int


WORKLOADS = {w.name: w for w in (
    Workload("curve", curve_requests, traced_requests=1000),
    Workload("sim-light", sim_light_requests, traced_requests=100),
    Workload("sim-saturated", sim_saturated_requests, traced_requests=30),
)}


def first_requests(workload: str, seed: int, count: int) -> list:
    """The first `count` requests of a workload's stream."""
    return list(itertools.islice(WORKLOADS[workload].requests(seed), count))
