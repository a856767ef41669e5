"""Linear throughput law, maximum throughput and the critical arrival rate.

Below saturation every offered packet is eventually served, so aggregate
throughput is simply S = N * E[PL] * lam. The line meets the model's
maximum throughput S_m at the critical rate lam_c = S_m / (N * E[PL]),
which separates the unsaturated and saturated regimes. S_m is the largest
throughput an arrival rate produces: the fixed point only reaches tau in
(0, tau_sat], so S(tau) is maximised on that branch and not beyond it.

S_m and lam_c depend on N and the PHY/MAC constants only, not on the
arrival rate, so critical_lambda memoises its reports per (N, params) in a
process-wide LRU cache of 128 entries. A report is frozen and shared by
every caller that asks for the same network, model.solve_fixed_point's
bracket included; errors are not cached.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

from .model import _s_of_tau, solve_fixed_point
from .params import (ParameterError, PhyMacParams, _check_n, _check_params,
                     _check_rate, derive_times)

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_GSS_TOL = 1e-9


@dataclass(frozen=True)
class RegimeReport:
    """Maximum-throughput summary for one network size."""

    n: int
    s_max: float  # bits/us
    tau_max: float
    lambda_c: float  # packets/us, per station
    tau_sat: float  # the saturated operating point's tau

    def regime_of(self, lam: float) -> str:
        """Classify a per-station arrival rate (packets/us); a lam that
        is not a number >= 0 raises ParameterError."""
        _check_rate(lam)
        return "unsaturated" if lam < self.lambda_c else "saturated"


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


def max_throughput(n: int,
                   params: PhyMacParams) -> tuple[float, float, float]:
    """Locate the throughput maximum on the reachable branch (0, tau_sat].

    S(tau) is unimodal there, so one golden-section search of the closed
    throughput form finds the interior peak; the saturated operating point
    closes the branch and wins when S still rises at tau_sat (N <= 10 for
    dot11g-54). Returns (s_max, tau_max, tau_sat). n above 10**300 is
    refused by the saturated solve.
    """
    n = _check_n(n)
    times = derive_times(params)
    sat = solve_fixed_point(math.inf, n, params)
    tau, s = _golden_section(lambda t: _s_of_tau(t, n, times, params),
                             0.0, sat.tau, _GSS_TOL)
    if sat.throughput >= s:
        s, tau = sat.throughput, sat.tau
    return s, tau, sat.tau


def linear_throughput(lam: float, n: int, params: PhyMacParams) -> float:
    """Unsaturated aggregate throughput N * E[PL] * lam, in bits/us: inf at
    lam = inf, and a ParameterError for a value past the float range."""
    lam = _check_rate(lam)
    n = _check_n(n)
    _check_params(params)
    slope = n * params.payload_bits
    if slope > sys.float_info.max or slope * lam == math.inf != lam:
        raise ParameterError("the linear law's slope N * E[PL], or its value "
                             f"at lam {lam!r}, overflows the float range")
    return slope * lam


def critical_lambda(n: int, params: PhyMacParams) -> RegimeReport:
    """Compute S_m and the critical per-station arrival rate lam_c.

    lam_c satisfies lam_c * N * E[PL] = S_m exactly. When the maximum sits
    at the end of the branch, tau_max is the saturated tau and lam_c is
    S_sat / (N * E[PL]). Reports are memoised per (N, params) and shared.
    """
    # The key is the Python int: True and 10.0 would hash like 1 and 10.
    n = _check_n(n)
    _check_params(params)  # a dict would raise lru_cache's TypeError
    return _critical_lambda(n, params)


@functools.lru_cache
def _critical_lambda(n: int, params: PhyMacParams) -> RegimeReport:
    # max_throughput is looked up as a module global on each miss, so a
    # wrapper put in its place sees every search.
    s_max, tau_max, tau_sat = max_throughput(n, params)
    # The linear law at lam = 1 is its slope N * E[PL].
    lambda_c = s_max / linear_throughput(1.0, n, params)
    return RegimeReport(n, s_max, tau_max, lambda_c, tau_sat)
