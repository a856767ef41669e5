"""Throughput analysis toolkit for IEEE 802.11 DCF basic access.

Analytic fixed-point model of N stations with Poisson arrivals and finite
queues, the linear throughput law with its critical arrival rate, and a
slot-accurate simulator for validation.
"""

from .model import ConvergenceError, FixedPointSolution, solve_fixed_point
from .params import (DerivedTimes, ParameterError, PhyMacParams, derive_times,
                     get_profile)
from .regime import RegimeReport, critical_lambda, linear_throughput
from .sim import ReplicationResult, SimConfig, SimResult, run as run_simulation

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError", "ParameterError", "__version__",
    "PhyMacParams", "DerivedTimes", "derive_times", "get_profile",
    "FixedPointSolution", "solve_fixed_point",
    "RegimeReport", "linear_throughput", "critical_lambda",
    "SimConfig", "SimResult", "ReplicationResult", "run_simulation",
]
