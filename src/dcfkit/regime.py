"""Linear throughput law, maximum throughput and the critical arrival rate.

Below saturation every offered packet is eventually served, so aggregate
throughput is simply S = N * E[PL] * lam. The line meets the model's
maximum throughput S_m at the critical rate lam_c = S_m / (N * E[PL]),
which separates the unsaturated and saturated regimes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .model import SolverConfig, _s_of_tau, solve_fixed_point
from .params import PhyMacParams, derive_times

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_TAU_LO = 1e-6
_TAU_HI = 0.5
_GSS_TOL = 1e-9
_GRID_POINTS = 10_000


@dataclass(frozen=True)
class RegimeReport:
    """Maximum-throughput summary for one network size."""

    n: int
    s_max: float  # bits/us
    tau_max: float
    lambda_c: float  # packets/us, per station
    linear_slope: float  # bits per packet times n
    tau_at_boundary: bool

    def regime_of(self, lam: float) -> str:
        """Classify a per-station arrival rate (packets/us)."""
        return "unsaturated" if lam < self.lambda_c else "saturated"


def _golden_section(f, a, b, tol):
    # Maximize a unimodal f on [a, b].
    h = b - a
    c = b - _GOLDEN * h
    d = a + _GOLDEN * h
    fc, fd = f(c), f(d)
    while h > tol:
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


def _parabolic_refine(f, x, h, lo, hi):
    # One quadratic-vertex step from the equally spaced points x-h, x, x+h.
    if x - h <= lo or x + h >= hi:
        return x, f(x)
    fl, fm, fr = f(x - h), f(x), f(x + h)
    denom = fl - 2.0 * fm + fr
    if denom >= 0.0:  # not locally concave, keep the search result
        return x, fm
    vertex = x + 0.5 * h * (fl - fr) / denom
    vertex = min(max(vertex, lo), hi)
    fv = f(vertex)
    return (vertex, fv) if fv > fm else (x, fm)


def max_throughput(n: int, params: PhyMacParams) -> tuple[float, float]:
    """Locate the throughput maximum over tau in [1e-6, 0.5].

    Golden-section search plus a parabolic refinement, then a dense grid
    sweep as a unimodality safety net. The maximization is closed-form in
    tau and iterates no fixed point. Returns (s_max, tau_max).
    """
    if n < 1:
        raise ParameterError("n must be >= 1")
    times = derive_times(params)

    def f(t):
        return _s_of_tau(t, n, times, params)

    tau, s = _golden_section(f, _TAU_LO, _TAU_HI, _GSS_TOL)
    tau, s = _parabolic_refine(f, tau, 1e-7, _TAU_LO, _TAU_HI)

    grid = np.linspace(_TAU_LO, _TAU_HI, _GRID_POINTS)
    values = _s_of_tau(grid, n, times, params)
    best = int(np.argmax(values))
    if values[best] > s:
        # The searches missed; zoom the golden section around the grid winner.
        lo = grid[max(best - 1, 0)]
        hi = grid[min(best + 1, _GRID_POINTS - 1)]
        tau2, s2 = _golden_section(f, lo, hi, _GSS_TOL)
        if s2 > s:
            tau, s = tau2, s2
    return float(s), float(tau)


def linear_throughput(lam: float, n: int, params: PhyMacParams) -> float:
    """Unsaturated aggregate throughput N * E[PL] * lam, in bits/us."""
    if lam < 0:
        raise ValueError(f"lam must be >= 0, got {lam}")
    if n < 1:
        raise ParameterError("n must be >= 1")
    return n * params.payload_bits * lam


def critical_lambda(n: int, params: PhyMacParams) -> RegimeReport:
    """Compute S_m and the critical per-station arrival rate lam_c.

    lam_c satisfies lam_c * N * E[PL] = S_m exactly. tau_at_boundary is
    set when the maximizer lands on the search edge (N = 1 has no interior
    maximum and its reported s_max is a formula supremum, not an
    achievable rate).
    """
    s_max, tau_max = max_throughput(n, params)
    slope = n * params.payload_bits
    lam_c = s_max / slope
    at_edge = tau_max <= _TAU_LO * (1.0 + 1e-6) or tau_max >= _TAU_HI - 1e-6
    return RegimeReport(n=n, s_max=s_max, tau_max=tau_max, lambda_c=lam_c,
                        linear_slope=float(slope), tau_at_boundary=at_edge)


def linearity_error(lam: float, n: int, params: PhyMacParams,
                    cfg: SolverConfig | None = None) -> float:
    """Relative gap between the solved model and the linear law at lam.

    Only defined strictly below the critical rate; raises ValueError
    outside (0, lam_c).
    """
    report = critical_lambda(n, params)
    if not 0.0 < lam < report.lambda_c:
        raise ValueError(
            f"lam must lie in (0, lambda_c={report.lambda_c:.6e}), got {lam}")
    s_model = solve_fixed_point(lam, n, params, cfg).throughput
    s_line = linear_throughput(lam, n, params)
    return abs(s_model - s_line) / s_line
