"""Fixed-point throughput model for DCF basic access under Poisson arrivals.

The per-station behaviour is a backoff chain with an idle state: a station
that empties its queue parks until the next arrival, then always draws a
fresh stage-0 backoff. Coupling N identical stations through the collision
probability p = 1 - (1 - tau)^(N-1) yields one nonlinear equation in the
per-slot transmission probability tau, solved here by damped iteration with
a bisection fallback.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConvergenceError, ParameterError
from .params import (DerivedTimes, PhyMacParams, _check_tau_n, _geom_sums,
                     derive_times)

_TINY = 1e-300


@dataclass(frozen=True)
class SolverConfig:
    """Knobs for the fixed-point iteration."""

    tolerance: float = 1e-10
    max_iterations: int = 100_000
    damping: float = 0.5
    fallback_bisection: bool = True

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ParameterError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ParameterError("max_iterations must be >= 1")
        if not 0.0 < self.damping <= 1.0:
            raise ParameterError("damping must lie in (0, 1]")


@dataclass(frozen=True)
class FixedPointSolution:
    """Converged operating point of the coupled station model."""

    tau: float
    p: float
    b00: float
    b_idle: float
    t_tx: float
    t_bo: float
    t_i: float
    t_a: float
    t_service: float
    rho: float
    q: float
    p_i0: float
    p_tx_others: float
    t_av: float
    throughput: float
    residual: float
    iterations: int
    converged: bool


def _slot_kernel(tau, n, times, params):
    # Collision probability, transmission and backoff slot durations, and
    # the stage sums gamma, epsilon, theta, alpha at tau. Written with
    # operators only so numpy arrays flow through for grid evaluation.
    p = 1.0 - (1.0 - tau) ** (n - 1)
    t_tx = (1.0 - p) * times.t_s + p * times.t_c
    t_bo = (1.0 - p) * params.slot_sigma + p * t_tx
    gamma, epsilon, theta, alpha = _geom_sums(p, params.w0, params.m)
    return p, t_tx, t_bo, gamma, epsilon, theta, alpha


def slot_times_at(tau: float, n: int, times: DerivedTimes,
                  params: PhyMacParams) -> tuple[float, float]:
    """Mean transmission-slot and backoff-slot durations seen by one station.

    Both mix success and collision outcomes with the collision probability
    implied by tau; a backoff slot is idle (sigma) when nobody else
    transmits.
    """
    _check_tau_n(tau, n)
    _, t_tx, t_bo, *_ = _slot_kernel(tau, n, times, params)
    return t_tx, t_bo


def access_and_service_time(p: float, t_bo: float, t_tx: float,
                            params: PhyMacParams) -> tuple[float, float]:
    """Mean channel access delay and total service time of one packet.

    The access delay averages the backoff countdown over the stage-visit
    distribution; service adds the final transmission slot.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    gamma, epsilon, _, _ = _geom_sums(p, params.w0, params.m)
    t_a = (params.w0 / (2.0 * epsilon)) * gamma * t_bo
    return t_a, t_a + t_tx


def idle_slot_time(p: float, t_tx: float, t_bo: float,
                   params: PhyMacParams) -> float:
    """Mean duration of a slot spent parked in the idle state."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    _, epsilon, theta, alpha = _geom_sums(p, params.w0, params.m)
    return (epsilon * t_tx + theta * t_bo) / alpha


def queue_empty_probability(rho: float, k: int) -> float:
    """Stationary empty probability of a single-server queue with k+1 places.

    Evaluated as (rho - 1) / (rho^(k+1) - 1) through expm1/log1p so the
    removable singularity at rho = 1 and large rho^(k+1) are both handled
    without loss of precision.
    """
    if rho < 0:
        raise ValueError(f"rho must be >= 0, got {rho}")
    if k < 1:
        raise ParameterError("k must be >= 1")
    if rho == 0.0:
        return 1.0
    if rho == 1.0:
        return 1.0 / (k + 1)
    if math.isinf(rho):
        return 0.0
    x = rho - 1.0
    if x == -1.0:  # rho below double epsilon; higher powers are negligible
        return 1.0 - rho
    ex = (k + 1) * math.log1p(x)
    if ex > 700.0:  # rho^(k+1) overflows; the limit is 0
        return 0.0
    return x / math.expm1(ex)


def _s_of_tau(tau, n, times, params):
    # Closed throughput form in tau alone; numpy arrays flow through.
    _, t_tx, t_bo, _, epsilon, theta, alpha = _slot_kernel(tau, n, times,
                                                          params)
    return (n * tau * (1.0 - tau) ** (n - 1) * params.payload_bits * alpha
            / (epsilon * t_tx + theta * t_bo))


def throughput_tau_form(tau: float, n: int, params: PhyMacParams) -> float:
    """Aggregate throughput as a function of the transmission probability."""
    _check_tau_n(tau, n)
    return float(_s_of_tau(tau, n, derive_times(params), params))


def throughput(sol: FixedPointSolution, n: int, params: PhyMacParams) -> float:
    """Aggregate throughput at a solved operating point, in bits/us (Mbps)."""
    if not sol.converged:
        raise ValueError("cannot evaluate throughput of a non-converged solution")
    return throughput_tau_form(sol.tau, n, params)


def _state_at(tau, lam, n, times, params):
    """One application of the fixed-point map; returns tau_next and the
    intermediate quantities at the input tau."""
    p, t_tx, t_bo, gamma, epsilon, theta, alpha = _slot_kernel(tau, n, times,
                                                               params)
    t_a = (params.w0 / (2.0 * epsilon)) * gamma * t_bo
    t_service = t_a + t_tx
    rho = lam * t_service
    q = 1.0 - queue_empty_probability(rho, params.queue_capacity_k)
    t_i = (epsilon * t_tx + theta * t_bo) / alpha
    p_i0 = -math.expm1(-lam * t_i)
    b00 = 1.0 / (alpha + (1.0 - q) / p_i0)
    tau_next = epsilon * b00
    return tau_next, (p, t_tx, t_bo, t_a, t_service, rho, q, t_i, p_i0, b00)


def _assemble(tau, lam, n, times, params, residual, iterations):
    _, st = _state_at(tau, lam, n, times, params)
    p, t_tx, t_bo, t_a, t_service, rho, q, t_i, p_i0, b00 = st
    # b00 normalises the chain, so b_idle + alpha * b00 = 1 and the average
    # slot b_idle * t_i + (epsilon * t_tx + theta * t_bo) * b00 is just t_i.
    return FixedPointSolution(
        tau=tau, p=p, b00=b00, b_idle=(1.0 - q) * b00 / p_i0, t_tx=t_tx,
        t_bo=t_bo, t_i=t_i, t_a=t_a, t_service=t_service, rho=rho, q=q,
        p_i0=p_i0, p_tx_others=p, t_av=t_i,
        throughput=_s_of_tau(tau, n, times, params),
        residual=residual, iterations=iterations, converged=True)


def _zero_load_solution(params, times):
    # lam = 0 pins the station in the idle state: tau = 0 and S = 0.
    t_tx, t_bo = times.t_s, params.slot_sigma
    t_a, t_service = access_and_service_time(0.0, t_bo, t_tx, params)
    t_i = idle_slot_time(0.0, t_tx, t_bo, params)
    return FixedPointSolution(
        tau=0.0, p=0.0, b00=0.0, b_idle=1.0, t_tx=t_tx, t_bo=t_bo, t_i=t_i,
        t_a=t_a, t_service=t_service, rho=0.0, q=0.0, p_i0=0.0,
        p_tx_others=0.0, t_av=t_i, throughput=0.0, residual=0.0,
        iterations=0, converged=True)


def solve_fixed_point(lam: float, n: int, params: PhyMacParams,
                      cfg: SolverConfig | None = None) -> FixedPointSolution:
    """Solve the coupled tau equation at per-station arrival rate lam.

    lam is in packets per microsecond. lam = 0 returns the exact idle
    solution; lam = inf is the saturated operating point. Raises
    ConvergenceError when the iteration budget runs out and bisection is
    disabled or fails.
    """
    if cfg is None:
        cfg = SolverConfig()
    if not lam >= 0:  # also rejects nan
        raise ValueError(f"lam must be >= 0, got {lam}")
    if n < 1:
        raise ParameterError("n must be >= 1")
    times = derive_times(params)
    if lam == 0.0:
        return _zero_load_solution(params, times)

    tau = 1.0 / (params.w0 + 1.0)
    for it in range(1, cfg.max_iterations + 1):
        tau_next, _ = _state_at(tau, lam, n, times, params)
        if abs(tau_next - tau) <= cfg.tolerance * max(tau_next, _TINY):
            final, _ = _state_at(tau_next, lam, n, times, params)
            residual = abs(final - tau_next) / max(tau_next, _TINY)
            return _assemble(tau_next, lam, n, times, params, residual, it)
        tau = tau + cfg.damping * (tau_next - tau)

    if cfg.fallback_bisection:
        sol = _bisect(lam, n, times, params, cfg)
        if sol is not None:
            return sol

    final, _ = _state_at(tau, lam, n, times, params)
    residual = abs(final - tau) / max(tau, _TINY)
    last = _assemble(tau, lam, n, times, params, residual, cfg.max_iterations)
    last = replace(last, converged=False)
    raise ConvergenceError(
        f"fixed point not reached after {cfg.max_iterations} iterations "
        f"(residual {residual:.3e})", solution=last, residual=residual)


def _bisect(lam, n, times, params, cfg):
    # Root of g(tau) = tau - map(tau); g < 0 near 0 and g > 0 near 1.
    def g(t):
        nxt, _ = _state_at(t, lam, n, times, params)
        return t - nxt

    lo, hi = 1e-15, 1.0 - 1e-12
    if g(lo) > 0.0 or g(hi) < 0.0:
        return None
    for it in range(1, 201):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= cfg.tolerance * max(lo, _TINY):
            break
    tau = 0.5 * (lo + hi)
    nxt, _ = _state_at(tau, lam, n, times, params)
    residual = abs(nxt - tau) / max(tau, _TINY)
    if residual > math.sqrt(cfg.tolerance):
        return None
    return _assemble(tau, lam, n, times, params, residual, it)


def solve_saturated(n: int, params: PhyMacParams,
                    cfg: SolverConfig | None = None) -> FixedPointSolution:
    """Solve the always-backlogged limit where every queue is nonempty.

    This is solve_fixed_point at lam = inf: q = 1, p_i0 = 1, b_idle = 0,
    and the map reduces to tau = epsilon(p) / alpha(p).
    """
    return solve_fixed_point(math.inf, n, params, cfg)
