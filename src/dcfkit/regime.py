"""Linear throughput law, maximum throughput and the critical arrival rate.

Below saturation every offered packet is eventually served, so aggregate
throughput is simply S = N * E[PL] * lam. The line meets the model's
maximum throughput S_m at the critical rate lam_c = S_m / (N * E[PL]),
which separates the unsaturated and saturated regimes. S_m is the largest
throughput an arrival rate produces: the fixed point only reaches tau in
(0, tau_sat], so S(tau) is maximised on that branch and not beyond it.

S_m and lam_c depend on N and the PHY/MAC constants only, not on the
arrival rate. The model keeps each network's maximum and saturated point
in its cached entry, the one its solves split their bracket by, and
critical_lambda builds a fresh frozen report from them on every call.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .model import _network
# derive_times is not called here, but perfbench's tracer wraps
# regime.derive_times by name, and test_package checks that it is here.
from .params import (ParameterError, PhyMacParams, _check_n,  # noqa: F401
                     _check_params, _check_rate, derive_times)


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


def max_throughput(n: int,
                   params: PhyMacParams) -> tuple[float, float, float]:
    """Locate the throughput maximum on the reachable branch (0, tau_sat].

    S(tau) is unimodal there, so one golden-section search of the closed
    throughput form finds the interior peak; the saturated operating point
    closes the branch and wins when S still rises at tau_sat (N <= 10 for
    dot11g-54). Returns (s_max, tau_max, tau_sat), read from the model's
    cached entry for the network, which the first call for it fills. n
    above 10**300 is refused.
    """
    n = _check_n(n)
    _check_params(params)  # a dict would raise lru_cache's TypeError
    return _network(n, params)[2:]


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
    S_sat / (N * E[PL]). Every call returns a fresh report, equal for
    equal (N, params); the search behind it runs once per cached network.
    """
    n = _check_n(n)  # the report holds the Python int
    # max_throughput is looked up as a module global, so a wrapper put in
    # its place sees every call.
    s_max, tau_max, tau_sat = max_throughput(n, params)
    # The linear law at lam = 1 is its slope N * E[PL].
    lambda_c = s_max / linear_throughput(1.0, n, params)
    return RegimeReport(n, s_max, tau_max, lambda_c, tau_sat)
