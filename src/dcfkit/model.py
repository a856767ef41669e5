"""Fixed-point throughput model for DCF basic access under Poisson arrivals.

The per-station behaviour is a backoff chain with an idle state: a station
that empties its queue parks until the next arrival, then always draws a
fresh stage-0 backoff. Coupling N identical stations through the collision
probability p = 1 - (1 - tau)^(N-1) yields one nonlinear equation in the
per-slot transmission probability tau. Its residual tau - map(tau) is
negative near 0 and positive near 1, so the root is found by Brent's
method (Brent 1973, Algorithms for Minimization without Derivatives, ch. 4)
on the reachable branch up to the saturated tau, split by the sign of the
residual at the throughput maximum's tau; the saturated solve itself, which
the split needs, uses the (0, 1) bracket. The saturated root and the
maximum depend on N and the PHY/MAC constants only, so one cached entry per
network holds them with its channel times and each rate's finished record.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .params import (ParameterError, PhyMacParams, _check_n, _check_params,
                     _check_rate, derive_times)

# The full bracket for tau. Brent's tolerance is relative only, so the
# small tau of light load keeps full precision: rtol is 4 eps, the floor
# scipy's brentq sets for a relative tolerance, and xtol is a subnormal, so
# a root near 1e-305 is not rounded to 0.
_BRACKET = (0.0, 1.0 - 1e-12)
_RTOL = 4.0 * sys.float_info.epsilon
_XTOL = 1e-320
_MAXITER = 100
# The largest N with an S_m and a lambda_c, and so with a bracket. With the
# log1p form S_m holds to 1e-5 as far as N is a float (8.3253939 on
# dot11g-54 from N = 1e8 to 1e308), but lambda_c and the line's slope
# N * E[PL] leave the float range first: on dot11g-54 lambda_c is subnormal
# from about N = 4.6e304, and N * E[PL] overflows from about 2.2e304.
_N_MAX = 10 ** 300
# A split bracket's upper half ends this factor above tau_sat, past rounding.
_SAT_MARGIN = 1.0 + 1e-9
# The golden-section search's ratio and its absolute stop in tau.
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GSS_TOL = 1e-9
# The most records a network keeps, the saturated one included. An auto
# sweep solves 26 rates: its 25 grid rates and the saturated rate of the
# critical-rate search. _network keeps 128 networks, so 4096 in all.
_ROOTS_PER_NETWORK = 32


@dataclass(slots=True)
class FixedPointSolution:
    """Converged operating point of the coupled station model."""

    tau: float
    p: float
    t_i: float  # the mean model slot
    t_packet: float  # the queue's service time: one packet, alpha * t_i
    q: float  # the chance the queue is nonempty
    throughput: float
    residual: float
    iterations: int


def _geom_sums(p, w0, m):
    """The stage sums gamma = sum (2p)^i and epsilon = sum p^i over stages
    0..m, and the slot weights theta, alpha = (gamma * w0 -/+ epsilon) / 2.
    """
    # Term-by-term summation: no ratio form, so p = 1/2 and p = 1 need no
    # special-casing and alpha - theta == epsilon holds by construction.
    gamma = 1.0
    epsilon = 1.0
    term_g = 1.0
    term_e = 1.0
    for _ in range(m):
        term_g = term_g * (2.0 * p)
        term_e = term_e * p
        gamma = gamma + term_g
        epsilon = epsilon + term_e
    half_w = 0.5 * (w0 * gamma)
    half_e = 0.5 * epsilon
    return gamma, epsilon, half_w - half_e, half_w + half_e


def _slot_kernel(tau, n, times, params):
    # The backoff chain at tau: the collision probability p, the mean
    # transmission and backoff slot durations seen by one station (a
    # backoff slot is sigma when nobody else transmits), the stage sums
    # epsilon and alpha, the mean slot t_i of a parked station, and the log
    # of the chance (1 - tau)^(n - 1) that the others stay silent, which p
    # and S both read. tau is a float. p's expm1 form keeps its digits at
    # the small tau of light load and large n, where the plain form
    # cancels. At tau = 1, outside log1p's domain, the log is -inf, or -0.0
    # for a lone station, whose p is then +0.0.
    if tau < 1.0:
        log_silent = (n - 1) * math.log1p(-tau)
    else:
        log_silent = -math.inf if n > 1 else -0.0
    p = -math.expm1(log_silent)
    t_tx = (1.0 - p) * times.t_s + p * times.t_c
    t_bo = (1.0 - p) * params.slot_sigma + p * t_tx
    _, epsilon, theta, alpha = _geom_sums(p, params.w0, params.m)
    t_i = (epsilon * t_tx + theta * t_bo) / alpha
    return p, t_tx, t_bo, epsilon, alpha, t_i, log_silent


def _queue_empty_probability(rho, k):
    """Stationary empty probability of a single-server queue of at most k
    packets, the one in service included, for rho in [0, inf], integer k >= 1.

    Evaluated as (rho - 1) / (rho^(k+1) - 1) through expm1/log1p so the
    removable singularity at rho = 1 and large rho^(k+1) are both handled
    without loss of precision.
    """
    if rho == 1.0:
        return 1.0 / (k + 1)
    x = rho - 1.0
    if x == -1.0:  # rho below double epsilon; higher powers are negligible
        return 1.0 - rho
    ex = (k + 1) * math.log1p(x)
    if ex > 700.0:  # rho^(k+1) overflows; the limit is 0
        return 0.0
    return x / math.expm1(ex)


def _s_of_slot(tau, n, log_silent, t_i, params):
    # Aggregate throughput: the success share of a slot of mean length t_i,
    # where the others stay silent with the kernel's exp(log_silent).
    return n * tau * math.exp(log_silent) * params.payload_bits / t_i


def _s_of_tau(tau, n, times, params):
    # Closed throughput form in tau alone, for a float tau.
    *_, t_i, log_silent = _slot_kernel(tau, n, times, params)
    return _s_of_slot(tau, n, log_silent, t_i, params)


def _state_at(tau, lam, n, times, params, iterations=None):
    """One application of the fixed-point map at tau: map(tau), or, given
    the solve's count of map calls, FixedPointSolution's values at tau."""
    p, _, _, epsilon, alpha, t_i, log_silent = _slot_kernel(tau, n, times,
                                                            params)
    # The queue serves one packet per t_packet, the chain's slots over all
    # of a packet's attempts: epsilon * t_tx + theta * t_bo = alpha * t_i.
    t_packet = alpha * t_i
    # No argument checks: solve_fixed_point refused a NaN or negative lam
    # and t_packet > 0, so rho lies in [0, inf]; PhyMacParams refused a
    # queue_capacity_k that is not an integer >= 1. lam = 0 skips the
    # products: near tau = 1 the largest windows overflow theta * t_bo, so
    # t_i and t_packet can read inf, and 0 * inf is NaN. p_i0 is the
    # chance that a parked station gets a packet within one slot t_i.
    if lam:
        rho = lam * t_packet
        p_i0 = -math.expm1(-lam * t_i)
    else:
        rho = p_i0 = 0.0
    q = 1.0 - _queue_empty_probability(rho, params.queue_capacity_k)
    # The chain's normalisation b_idle + alpha * b00 = 1, with
    # p_i0 * b_idle = (1 - q) * b00, solved for the stage-0 head b00 over
    # one denominator: it stays positive where p_i0 is 0 (lam = 0, or
    # lam * t_i underflowing), where q is 0.
    b00 = p_i0 / (alpha * p_i0 + (1.0 - q))
    tau_next = epsilon * b00
    if iterations is None:
        return tau_next
    # The chain's slots sum to alpha * t_i, so the average slot is just t_i.
    # A root of 0 (lam = 0, or a rate so small, from about 1e-317 pkt/s,
    # that the root falls below _XTOL) has no relative residual, so it gets
    # the absolute one.
    return (tau, p, t_i, t_packet, q,
            _s_of_slot(tau, n, log_silent, t_i, params),
            abs(tau_next - tau) / tau if tau else tau_next, iterations)


class ConvergenceError(RuntimeError):
    """Raised when the bracketed solve for tau fails.

    That is, tau - map(tau) does not change sign on the bracket, is NaN,
    or the root finder stops short of convergence. This error is the only
    sign of the last case: every solution returned has converged. Then
    .solution holds the last iterate, and .solution.residual its residual.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution


def _brentq(f, xa, xb, fa=None, fb=None):
    """Brent's root finder, step for step the one in scipy's brentq.c.

    The tolerances are _XTOL and _RTOL. It departs from scipy in two ways:
    - fa and fb, when given, are f(xa) and f(xb), not evaluated again;
    - where scipy's interpolation or extrapolation step is exactly 0.0, the
      step is computed again dividing first. On a bracket near the bottom
      of the float range, such as 1e-301 wide with f near 1e-310, scipy's
      product underflows, and its minimum steps run out of iterations.
      Wherever scipy's step is nonzero, the steps are scipy's.
    Returns (root, calls, converged): calls counts the evaluations of f,
    a given end value included, and converged is False when _MAXITER
    steps ran out. Raises ConvergenceError when f is NaN or has one sign
    on [xa, xb].
    """
    xpre, xcur = xa, xb
    fpre = f(xpre) if fa is None else fa
    fcur = f(xcur) if fb is None else fb
    calls = 2
    if fpre != fpre or fcur != fcur:
        x = xpre if fpre != fpre else xcur
        raise ConvergenceError(f"tau - map(tau) is NaN at tau = {x!r}")
    if fpre == 0.0:
        return xpre, calls, True
    if fcur == 0.0:
        return xcur, calls, True
    if (fpre < 0.0) == (fcur < 0.0):
        raise ConvergenceError(
            f"tau - map(tau) does not change sign on {(xa, xb)}")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_MAXITER):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_XTOL + _RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur, calls, True
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
                if stry == 0.0:  # the product underflowed
                    stry = -fcur * ((xcur - xpre) / (fcur - fpre))
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                num = fblk * dblk - fpre * dpre
                den = dblk * dpre * (fblk - fpre)
                stry = -fcur * num / den
                if stry == 0.0:  # the product underflowed
                    stry = -fcur * (num / den)
            step = 2 * abs(stry)
            if step < abs(spre) and step < 3 * abs(sbis) - delta:
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis  # bisect
        else:
            spre = scur = sbis  # bisect
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
        calls += 1
        if fcur != fcur:
            raise ConvergenceError(f"tau - map(tau) is NaN at tau = {xcur!r}")
    return xcur, calls, False


def _golden_section(f, a, b, tol):
    # Maximize a unimodal f on [a, b]. The width stops at tol and at 1e-6
    # of the interior point, whichever is smaller: tau_max is about 0.37/N,
    # so at large N an absolute tol alone spans the peak.
    h = b - a
    c = b - _GOLDEN * h
    d = a + _GOLDEN * h
    fc, fd = f(c), f(d)
    while h > tol or h > 1e-6 * c:
        if fc >= fd:
            b, d, fd = d, c, fc
            h = b - a
            c = b - _GOLDEN * h
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _GOLDEN * h
            fd = f(d)
    return (c, fc) if fc >= fd else (d, fd)


def _solution(kept):
    # A fresh record from a network's kept (values, converged), refused
    # when the solve ran out of steps.
    values, converged = kept
    sol = FixedPointSolution(*values)
    if not converged:
        raise ConvergenceError(
            f"fixed point not reached in {sol.iterations} map calls "
            f"(residual {sol.residual:.3e})", solution=sol)
    return sol


@functools.lru_cache(maxsize=128)
def _network(n, params):
    # The entry of n stations with params, n a checked int and params a
    # checked PhyMacParams of ints and floats, so equal keys give bit-equal
    # entries; lru_cache stores no error raised here. The entry is (times,
    # records, s_max, tau_max, tau_sat): the channel times, each solved
    # rate's record values at its root and converged flag, by rate as a
    # float, the saturated first, under inf, and the maximum that
    # regime.max_throughput describes.
    if n > _N_MAX:
        raise ParameterError(
            f"n must be <= 10**300 for S_m and lambda_c, got {n}: past it "
            "lambda_c nears the bottom of the float range")
    times = derive_times(params)
    tau, calls, converged = _brentq(
        lambda t: t - _state_at(t, math.inf, n, times, params), *_BRACKET)
    kept = _state_at(tau, math.inf, n, times, params, calls), converged
    sat = _solution(kept)
    tau_max, s_max = _golden_section(
        lambda t: _s_of_tau(t, n, times, params), 0.0, sat.tau, _GSS_TOL)
    if sat.throughput >= s_max:
        tau_max, s_max = sat.tau, sat.throughput
    return times, {math.inf: kept}, s_max, tau_max, sat.tau


def solve_fixed_point(lam: float, n: int,
                      params: PhyMacParams) -> FixedPointSolution:
    """Solve the coupled tau equation at per-station arrival rate lam.

    lam is in packets per microsecond; lam = inf is the saturated operating
    point, where every queue is nonempty (q = 1) and the map reduces to
    tau = epsilon(p) / alpha(p). Its root of g(tau) = tau - map(tau) is
    found by Brent's method on (0, 1), where g is negative near 0 and
    positive near 1. A finite lam's bracket is the reachable branch split
    at tau_max, the throughput maximum's tau: (0, tau_max] where g is >= 0
    there, else [tau_max, tau_sat * (1 + 1e-9)], as no map exceeds the
    saturated one. Where g has three roots, as near lambda_c on some
    networks, the split kept the lowest at every dot11g-54 rate checked. At
    lam = 0, g(0) = 0 ends the solve at tau = 0 (the idle solution, 2 map
    calls).

    A process-wide LRU cache keeps up to 128 networks (n, params), each
    with its channel times, throughput maximum and the records of up to
    32 rates by lam as a float, the saturated one included. A repeated
    rate runs no map: every call builds a fresh record from the kept
    values of its first solve, so no caller shares one, and iterations
    counts the map evaluations of that solve, the one at tau_max included.
    Errors are not cached, and a root that did not converge raises on
    every call.
    Raises ParameterError for a lam that is a bool, no number, past the
    float range, NaN or negative, a bad n or params, or n above 10**300;
    ConvergenceError when g does not change sign on the bracket, is NaN,
    or the solve does not converge.
    """
    lam = _check_rate(lam)
    n = _check_n(n)
    _check_params(params)  # a dict would raise lru_cache's TypeError
    times, records, _, tau_max, tau_sat = _network(n, params)
    kept = records.get(lam)
    if kept is None:
        def g(t):
            return t - _state_at(t, lam, n, times, params)

        g_max = g(tau_max)
        if g_max < 0.0:
            root = _brentq(g, tau_max, tau_sat * _SAT_MARGIN, g_max)
        else:  # a NaN too, which _brentq reports at tau_max
            root = _brentq(g, _BRACKET[0], tau_max, None, g_max)
        tau, calls, converged = root
        if len(records) == _ROOTS_PER_NETWORK:
            records.popitem()  # the newest, so the saturated record stays
        kept = records[lam] = (_state_at(tau, lam, n, times, params, calls),
                               converged)
    return _solution(kept)
