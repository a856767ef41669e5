"""Protocol constants for DCF basic access and the timing quantities derived
from them.

Conventions used throughout the package: durations are microseconds, frame
sizes are bits, rates are bits per microsecond (numerically equal to Mbps),
and arrival rates are packets per microsecond.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import ParameterError


@dataclass(frozen=True)
class PhyMacParams:
    """PHY and MAC constants describing one station configuration."""

    mac_header_bits: int
    phy_preamble_bits: int
    plcp_header_bits: int
    ack_bits: int
    payload_bits: int
    data_rate: float  # bits/us
    basic_rate: float  # bits/us, carries PLCP preamble+header and the ACK
    slot_sigma: float  # us
    sifs: float  # us
    difs: float  # us
    eifs: float  # us
    ack_timeout: float  # us
    prop_delta: float  # us
    w0: int  # minimum contention window
    m: int  # number of window-doubling stages
    w_max: int  # must equal w0 * 2**m
    queue_capacity_k: int

    def __post_init__(self):
        for name in ("mac_header_bits", "phy_preamble_bits", "plcp_header_bits",
                     "ack_bits", "payload_bits"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be a positive bit count")
        if self.data_rate <= 0 or self.basic_rate <= 0:
            raise ParameterError("rates must be positive")
        if self.data_rate < self.basic_rate:
            raise ParameterError("data_rate must be >= basic_rate")
        for name in ("slot_sigma", "sifs", "difs", "eifs", "ack_timeout"):
            if getattr(self, name) <= 0:
                raise ParameterError(f"{name} must be a positive duration")
        if self.prop_delta < 0:
            raise ParameterError("prop_delta must be >= 0")
        if self.w0 < 2:
            raise ParameterError("w0 must be >= 2")
        if self.m < 1:
            raise ParameterError("m must be >= 1")
        if self.w_max != self.w0 * 2 ** self.m:
            raise ParameterError("w_max must equal w0 * 2**m")
        if self.queue_capacity_k < 1:
            raise ParameterError("queue_capacity_k must be >= 1")

    def window(self, stage: int) -> int:
        """Contention window size at a backoff stage, capped at stage m."""
        return self.w0 << min(stage, self.m)

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "PhyMacParams":
        fields = set(cls.__dataclass_fields__)
        unknown = set(data) - fields
        if unknown:
            raise ParameterError(f"unknown parameter keys: {sorted(unknown)}")
        missing = fields - set(data)
        if missing:
            raise ParameterError(f"missing parameter keys: {sorted(missing)}")
        return cls(**data)


# 802.11g-style long-preamble DSSS timing with a 54 Mbps payload rate.
PROFILES: dict[str, dict] = {
    "dot11g-54": {
        "mac_header_bits": 28 * 8,
        "phy_preamble_bits": 144,
        "plcp_header_bits": 48,
        "ack_bits": 14 * 8,
        "payload_bits": 1025 * 8,
        "data_rate": 54.0,
        "basic_rate": 1.0,
        "slot_sigma": 20.0,
        "sifs": 10.0,
        "difs": 50.0,
        "eifs": 364.0,
        "ack_timeout": 364.0,
        "prop_delta": 1.0,
        "w0": 32,
        "m": 5,
        "w_max": 1024,
        "queue_capacity_k": 50,
    },
}


def get_profile(name: str) -> PhyMacParams:
    """Return a named built-in parameter profile."""
    try:
        data = PROFILES[name]
    except KeyError:
        raise ParameterError(
            f"unknown profile {name!r}; available: {sorted(PROFILES)}") from None
    return PhyMacParams.from_dict(data)


def load_params(path) -> PhyMacParams:
    """Load parameters from a JSON file with the PhyMacParams field names."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ParameterError("parameter file must contain a JSON object")
    return PhyMacParams.from_dict(data)


@dataclass(frozen=True)
class DerivedTimes:
    """Channel occupancy times implied by a parameter set.

    component_breakdown keeps the individual terms, labelled "t_s/..." and
    "t_c/...", in the exact order they are summed.
    """

    t_s: float
    t_c: float
    t_plcp: float
    t_ack: float
    component_breakdown: tuple[tuple[str, float], ...]


def derive_times(params: PhyMacParams) -> DerivedTimes:
    """Compute success and collision channel occupancy from the constants.

    A successful exchange is PLCP + frame + SIFS + ACK + DIFS plus one
    propagation delay on each hop; a collision occupies PLCP + frame and
    ends with EIFS instead of the ACK handshake.
    """
    t_plcp = (params.phy_preamble_bits + params.plcp_header_bits) / params.basic_rate
    t_ack = t_plcp + params.ack_bits / params.basic_rate
    t_frame = (params.mac_header_bits + params.payload_bits) / params.data_rate
    ts_parts = (
        ("t_s/plcp", t_plcp),
        ("t_s/frame", t_frame),
        ("t_s/sifs", params.sifs),
        ("t_s/prop", params.prop_delta),
        ("t_s/ack", t_ack),
        ("t_s/difs", params.difs),
        ("t_s/prop", params.prop_delta),
    )
    tc_parts = (
        ("t_c/plcp", t_plcp),
        ("t_c/frame", t_frame),
        ("t_c/prop", params.prop_delta),
        ("t_c/eifs", params.eifs),
    )
    t_s = 0.0
    for _, value in ts_parts:
        t_s += value
    t_c = 0.0
    for _, value in tc_parts:
        t_c += value
    return DerivedTimes(
        t_s=t_s,
        t_c=t_c,
        t_plcp=t_plcp,
        t_ack=t_ack,
        component_breakdown=ts_parts + tc_parts,
    )


@dataclass(frozen=True)
class GeomQuantities:
    """The four window-weighted sums that drive the backoff chain algebra."""

    gamma: float  # sum of (2p)^i over stages 0..m
    epsilon: float  # sum of p^i over stages 0..m
    theta: float  # (gamma*w0 - epsilon) / 2
    alpha: float  # (gamma*w0 + epsilon) / 2


def _geom_sums(p, w0, m):
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


def geom_quantities(p: float, w0: int, m: int) -> GeomQuantities:
    """Evaluate the stage sums gamma, epsilon and the slot weights theta, alpha."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if w0 < 2:
        raise ParameterError("w0 must be >= 2")
    if m < 1:
        raise ParameterError("m must be >= 1")
    gamma, epsilon, theta, alpha = _geom_sums(float(p), w0, m)
    return GeomQuantities(gamma=gamma, epsilon=epsilon, theta=theta, alpha=alpha)


def _check_tau_n(tau, n):
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau must lie in [0, 1], got {tau}")
    if n < 1:
        raise ParameterError("n must be >= 1")


def collision_probability(tau: float, n: int) -> float:
    """Probability that a transmission by one of n stations is collided."""
    _check_tau_n(tau, n)
    return 1.0 - (1.0 - tau) ** (n - 1)
