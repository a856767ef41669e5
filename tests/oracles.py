"""Independent reference implementations used to check the package.

Everything here is deliberately written the slow, literal way: explicit
state enumeration for the backoff chain, plain summations for the series,
component-by-component sums for the timing. Nothing here imports from
dcfkit but chain_at and s_infinity, which reads only derive_times' two
sums, so agreement is evidence rather than tautology.
chain_at is no reference: it reads back the model's own chain, the record
values of model._state_at and the slot durations of model._slot_kernel.
"""
import dataclasses
import math
import random
from types import SimpleNamespace

import numpy as np

from dcfkit import derive_times
from dcfkit.model import _slot_kernel, _state_at

# Timing components of the dot11g-54 profile, summed by hand (us).
PLCP_US = (144 + 48) / 1.0
ACK_US = PLCP_US + 14 * 8 / 1.0
FRAME_US = (28 * 8 + 1025 * 8) / 54.0
T_S_US = PLCP_US + FRAME_US + 10.0 + 1.0 + ACK_US + 50.0 + 1.0
T_C_US = PLCP_US + FRAME_US + 1.0 + 364.0
PAYLOAD_BITS = 1025 * 8


def geom_gamma(p, m):
    return math.fsum((2.0 * p) ** i for i in range(m + 1))


def geom_epsilon(p, m):
    return math.fsum(p ** i for i in range(m + 1))


def geom_theta(p, w0, m):
    return 0.5 * (geom_gamma(p, m) * w0 - geom_epsilon(p, m))


def geom_alpha(p, w0, m):
    return 0.5 * (geom_gamma(p, m) * w0 + geom_epsilon(p, m))


def queue_empty_sum(rho, k):
    """Empty probability of the finite queue via the raw geometric sum.

    Terms come from repeated multiplication so an overloaded queue
    saturates to inf (and the probability to 0.0) instead of raising.
    fsum raises OverflowError when finite terms sum past the float range;
    that sum is inf as well.
    """
    terms = []
    term = 1.0
    for _ in range(k + 1):
        terms.append(term)
        term *= rho
    try:
        return 1.0 / math.fsum(terms)
    except OverflowError:
        return 1.0 / math.inf


def chain_states(w0, m):
    return [(i, k) for i in range(m + 1) for k in range(w0 << i)]


def chain_matrix(p, w0, m):
    """Transition matrix of the pinned-p backoff chain without an idle state.

    From (i, 0): success (prob 1-p) draws a fresh stage-0 window; collision
    (prob p) moves to stage i+1 with a uniformly drawn counter. The last
    stage returns to stage 0 no matter the outcome, so the stage-occupancy
    recursion b_{i,0} = p^i * b_{0,0} holds for every stage including m.
    """
    states = chain_states(w0, m)
    index = {s: j for j, s in enumerate(states)}
    size = len(states)
    mat = np.zeros((size, size))
    for (i, k), j in index.items():
        if k > 0:
            mat[j, index[(i, k - 1)]] = 1.0
            continue
        if i < m:
            for kk in range(w0):
                mat[j, index[(0, kk)]] += (1.0 - p) / w0
            wi = w0 << (i + 1)
            for kk in range(wi):
                mat[j, index[(i + 1, kk)]] += p / wi
        else:
            for kk in range(w0):
                mat[j, index[(0, kk)]] += 1.0 / w0
    return states, mat


def chain_stationary(p, w0, m):
    """Stationary distribution of the pinned-p chain as {(i, k): prob}."""
    states, mat = chain_matrix(p, w0, m)
    size = len(states)
    a = mat.T - np.eye(size)
    a[-1, :] = 1.0
    b = np.zeros(size)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    return dict(zip(states, pi))


def single_station_saturated_throughput():
    """N = 1 never collides: one packet per w0-mean backoff plus exchange."""
    return PAYLOAD_BITS / (T_S_US + (32 - 1) / 2.0 * 20.0)


def wu_saturated_tau(p, w0, m):
    """Saturated tau of Wu et al. (INFOCOM 2002) with retry limit m.

    The window doubles at each of m retries and a packet is discarded
    after m + 1 failed attempts. The closed form is 0/0 at p = 1/2 and
    divides by 0 once 1 - p rounds to 0.
    """
    head = (1.0 - 2.0 * p) * (1.0 - p ** (m + 1))
    return 2.0 * head / (
        w0 * (1.0 - (2.0 * p) ** (m + 1)) * (1.0 - p) + head)


def s_infinity(params):
    """The N -> inf limit of S_m, and the x* = N * tau that reaches it.

    Holding x = N * tau fixed as N grows, p -> 1 - e^-x and the others'
    silence (1 - tau)^(N-1) -> e^-x, so S tends to x * e^-x * E[PL] /
    t_i(p), with t_i from the stage sums above and derive_times. Its
    maximum over x in (0, 20] is found on a grid of 41 points, zoomed in
    14 times around the best one. Returns (S_inf, x*).
    """
    times = derive_times(params)
    w0, m = params.w0, params.m

    def s(x):
        p = -math.expm1(-x)
        t_tx = (1.0 - p) * times.t_s + p * times.t_c
        t_bo = (1.0 - p) * params.slot_sigma + p * t_tx
        t_i = ((geom_epsilon(p, m) * t_tx + geom_theta(p, w0, m) * t_bo)
               / geom_alpha(p, w0, m))
        return x * math.exp(-x) * params.payload_bits / t_i

    lo, hi = 0.0, 20.0
    for _ in range(14):
        xs = np.linspace(lo, hi, 41)
        best = max(range(41), key=lambda i: s(float(xs[i])))
        lo, hi = xs[max(best - 1, 0)], xs[min(best + 1, 40)]
    x_star = float(xs[best])
    return s(x_star), x_star


def chain_at(tau, lam, n, params):
    """The model's chain at tau, with what FixedPointSolution leaves out.

    p, t_i, t_packet and q are the record model._state_at gives at tau,
    so at a solution's tau they are the solve's own. Next to them: the
    kernel's slot durations t_tx and t_bo, the queue's load rho, the
    chance p_i0 that a parked station gets a packet within one slot t_i,
    and the stage-0 head b00 and idle share b_idle of the normalised chain,
    in _state_at's operations.
    """
    times = derive_times(params)
    rec = _state_at(tau, lam, n, times, params, 0)
    _, t_tx, t_bo, _, alpha, *_ = _slot_kernel(tau, n, times, params)
    if lam:
        rho = lam * rec.t_packet
        p_i0 = -math.expm1(-lam * rec.t_i)
    else:
        rho = p_i0 = 0.0
    d = alpha * p_i0 + (1.0 - rec.q)
    return SimpleNamespace(
        p=rec.p, t_tx=t_tx, t_bo=t_bo, t_i=rec.t_i, t_packet=rec.t_packet,
        rho=rho, q=rec.q, p_i0=p_i0, b00=p_i0 / d, b_idle=(1.0 - rec.q) / d)


def record_bits(sol):
    """A record's field values, each float as its hex form, so two records
    compare bit for bit."""
    return [v.hex() if type(v) is float else v
            for v in dataclasses.astuple(sol)]


def split_bracket(g, lo, hi, tau_max):
    """The bracket of a finite rate's solve, and the end values Brent is
    given, None where Brent evaluates g itself: [lo, hi] split at tau_max
    by the sign of g there."""
    g_max = g(tau_max)
    if g_max < 0.0:
        return tau_max, hi, g_max, None
    return lo, tau_max, None, g_max


def slot_walk(cfg, seed):
    """ReplicationResult's fields from a plain walk over every virtual slot.

    Every slot, every station takes its arrivals up to the slot's start; a
    queue going from 0 to 1 draws a stage-0 counter randrange(w0). The
    transmitters are the backlogged stations whose counter is 0. After a
    transmission a backlogged station draws randrange(w0 << stage) + 1,
    and every counter above 0 counts down once per slot. Station sid draws
    from random.Random(f"{seed}/{sid}"), with expovariate and randrange
    written out over random() and getrandbits(). The slot lasts sigma when
    idle, T_S_US for one transmitter and T_C_US for more: the timings of
    dot11g-54, whatever cfg.params holds.
    """
    p = cfg.params
    n, lam = cfg.n_stations, cfg.lambda_per_station
    w0, m, cap, sigma = p.w0, p.m, p.queue_capacity_k, p.slot_sigma
    rngs = [random.Random(f"{seed}/{sid}") for sid in range(n)]

    def expovariate(rng):
        return -math.log(1.0 - rng.random()) / lam

    def randrange(rng, w):
        r = rng.getrandbits(w.bit_length())
        while r >= w:
            r = rng.getrandbits(w.bit_length())
        return r

    next_arrival = [expovariate(rng) if lam > 0 else math.inf
                    for rng in rngs]
    backlog, stage, counter = [0] * n, [0] * n, [0] * n
    arrivals, successes, drops, retry_drops = ([0] * n for _ in range(4))
    measured = collisions = participations = slots = 0
    now = 0.0
    while now < cfg.sim_duration:
        for i in range(n):
            while next_arrival[i] <= now:
                arrivals[i] += 1
                if backlog[i] >= cap:
                    drops[i] += 1
                else:
                    backlog[i] += 1
                    if backlog[i] == 1:
                        counter[i] = randrange(rngs[i], w0)
                next_arrival[i] += expovariate(rngs[i])
        txs = [i for i in range(n) if backlog[i] and counter[i] == 0]
        for i in txs:
            if len(txs) == 1:
                successes[i] += 1
                backlog[i] -= 1
                stage[i] = 0
            elif stage[i] < m:
                stage[i] += 1
            else:
                retry_drops[i] += 1
                drops[i] += 1
                backlog[i] -= 1
                stage[i] = 0
            if backlog[i]:
                counter[i] = randrange(rngs[i], w0 << stage[i]) + 1
        counter = [c - 1 if c > 0 else 0 for c in counter]
        if len(txs) == 1:
            if now >= cfg.warmup:
                measured += 1
            now += T_S_US
        elif txs:
            collisions += 1
            participations += len(txs)
            now += T_C_US
        else:
            now += sigma
        slots += 1
    return {
        "throughput": measured * p.payload_bits / (now - cfg.warmup),
        "end_time": now,
        "measured_successes": measured,
        "collisions": collisions,
        "collision_participations": participations,
        "virtual_slots": slots,
        "per_station_arrivals": tuple(arrivals),
        "per_station_successes": tuple(successes),
        "per_station_drops": tuple(drops),
        "per_station_retry_drops": tuple(retry_drops),
        "final_queue_lengths": tuple(backlog),
    }
