"""Protocol constants for DCF basic access and the timing quantities derived
from them.

Conventions used throughout the package: durations are microseconds, frame
sizes are bits, rates are bits per microsecond (numerically equal to Mbps),
and arrival rates are packets per microsecond.
"""
from __future__ import annotations

import math
import numbers
import operator
import os
from dataclasses import dataclass, fields


class ParameterError(ValueError):
    """Raised when protocol parameters violate their documented constraints."""


def _is_number(value, kind):
    # bool is an int subclass, yet True is no count, duration or rate.
    return not isinstance(value, bool) and isinstance(value, kind)


def _check_n(n, name="n", least=1):
    """Refuse a count that is a bool, a non-integer or below least."""
    # An int skips the ABC isinstance check, many times slower than the
    # type test; every solve makes this call.
    if type(n) is not int and not _is_number(n, numbers.Integral):
        raise ParameterError(f"{name} must be an integer, got {n!r}")
    n = operator.index(n)  # an int: NumPy's fixed-width integers wrap
    if n < least:
        raise ParameterError(f"{name} must be >= {least}")
    return n


def _check_rate(lam, name="lam", finite=False):
    """Refuse an arrival rate that is a bool, a non-number, past the float
    range, NaN, negative or, with finite, infinite; return it as a float,
    as _check_n returns the int: a float as the same object, and -0.0 as
    +0.0. inf is the saturated operating point."""
    # A float skips the ABC isinstance check, as an int does in _check_n.
    value = lam
    if type(lam) is not float:
        if not _is_number(lam, numbers.Real):
            raise ParameterError(f"{name} must be a number, got {lam!r}")
        # Past the float range an int or a Fraction raises OverflowError,
        # and a NumPy long double converts to inf.
        try:
            value = float(lam)
        except OverflowError:
            value = math.inf
        if math.isinf(value) and value != lam:
            raise ParameterError(f"{name} is too large for a float")
    if not value >= 0 or finite and value == math.inf:  # also rejects nan
        limit = "finite and >= 0" if finite else ">= 0"
        raise ParameterError(f"{name} must be {limit}, got {lam!r}")
    return value or 0.0  # -0.0 is falsy


def _check_params(params):
    """Refuse anything but a PhyMacParams, such as a profile's name."""
    if not isinstance(params, PhyMacParams):
        raise ParameterError(f"params must be a PhyMacParams, got {params!r}")


# PhyMacParams' counts with the least value of each (a frame may carry no
# MAC header), and its rates and durations, which are finite and >= 0.
_COUNTS = (("mac_header_bits", 0), ("plcp_bits", 1), ("ack_bits", 1),
           ("payload_bits", 1), ("w0", 2), ("m", 1), ("queue_capacity_k", 1))
_REALS = ("data_rate", "basic_rate", "slot_sigma", "sifs", "eifs",
          "prop_delta")


@dataclass(frozen=True)
class PhyMacParams:
    """PHY and MAC constants describing one station configuration."""

    mac_header_bits: int
    plcp_bits: int  # PLCP preamble and header
    ack_bits: int
    payload_bits: int
    data_rate: float  # bits/us
    basic_rate: float  # bits/us, carries the PLCP and the ACK
    slot_sigma: float  # us
    sifs: float  # us
    eifs: float  # us
    prop_delta: float  # us
    w0: int  # minimum contention window
    m: int  # window-doubling stages; the largest window is w0 * 2**m
    queue_capacity_k: int  # packets a station holds, the one being sent too

    def __post_init__(self):
        for name, least in _COUNTS:
            n = _check_n(getattr(self, name), name, least)
            try:  # every count meets floats in derive_times or the model
                float(n)
            except OverflowError:
                raise ParameterError(
                    f"{name} is too large for a float") from None
            object.__setattr__(self, name, n)
        # Stored as floats: a NumPy float32 would carry single precision
        # into every product, yet equal and hash like its float, so the
        # two would share cache entries.
        for name in _REALS:
            object.__setattr__(self, name, _check_rate(
                getattr(self, name), name, finite=True))
        if self.data_rate == 0 or self.basic_rate == 0:
            raise ParameterError("rates must be positive")
        if self.data_rate < self.basic_rate:
            raise ParameterError("data_rate must be >= basic_rate")
        for name in ("slot_sigma", "sifs", "eifs"):
            if getattr(self, name) == 0:
                raise ParameterError(f"{name} must be a positive duration")
        # The stage sum w0 * (2^(m+1) - 1) overflows a float, and every
        # solve reads NaN, once w0 * 2^m >= 2^1023. Bit lengths decide it
        # without building w0 << m for a huge m.
        if self.w0.bit_length() + self.m > 1023:
            raise ParameterError(f"w0 * 2**m must be below 2**1023, got "
                                 f"w0 {self.w0} and m {self.m}")
        try:  # finite fields can sum to an infinite t_s or t_c (S reads 0)
            times = derive_times(self)
            finite = math.isfinite(times.t_s) and math.isfinite(times.t_c)
        except OverflowError:  # two huge integer bit counts added
            finite = False
        if not finite:
            raise ParameterError("t_s or t_c is too large for a float")
        # Hashed once, of the normalised values: every solve looks it up.
        object.__setattr__(self, "_hash", hash(tuple(
            getattr(self, f.name) for f in fields(self))))

    def __hash__(self):
        return self._hash


@dataclass(frozen=True)
class DerivedTimes:
    """Channel occupancy times implied by a parameter set."""

    t_s: float
    t_c: float


def derive_times(params: PhyMacParams) -> DerivedTimes:
    """Compute success and collision channel occupancy from the constants.

    A successful exchange is PLCP + frame + SIFS + ACK + DIFS plus one
    propagation delay on each hop, where DIFS is SIFS + 2 slots; a collision
    occupies PLCP + frame and ends with EIFS instead of the ACK handshake.
    """
    _check_params(params)
    t_plcp = params.plcp_bits / params.basic_rate
    t_ack = t_plcp + params.ack_bits / params.basic_rate
    t_frame = (params.mac_header_bits + params.payload_bits) / params.data_rate
    t_s = (t_plcp + t_frame + params.sifs + params.prop_delta + t_ack
           + (params.sifs + 2.0 * params.slot_sigma) + params.prop_delta)
    t_c = t_plcp + t_frame + params.prop_delta + params.eifs
    return DerivedTimes(t_s=t_s, t_c=t_c)


# 802.11g-style long-preamble DSSS timing with a 54 Mbps payload rate,
# built and checked once.
PROFILES: dict[str, PhyMacParams] = {
    "dot11g-54": PhyMacParams(
        mac_header_bits=28 * 8,
        plcp_bits=144 + 48,
        ack_bits=14 * 8,
        payload_bits=1025 * 8,
        data_rate=54.0,
        basic_rate=1.0,
        slot_sigma=20.0,
        sifs=10.0,
        eifs=364.0,
        prop_delta=1.0,
        w0=32,
        m=5,
        queue_capacity_k=50,
    ),
}


def get_profile(name: str | os.PathLike) -> PhyMacParams:
    """A built-in profile's shared record by name, which wins over a file of
    that name; otherwise the JSON object of PhyMacParams fields at path name.
    """
    # os.path.exists takes an int as a file descriptor: 0 is stdin.
    if not isinstance(name, (str, os.PathLike)):
        raise ParameterError(f"profile must be a name or a path, got {name!r}")
    if name in PROFILES:
        return PROFILES[name]
    if not os.path.exists(name):
        raise ParameterError(f"unknown profile or missing file: {name!r} "
                             f"(profiles: {sorted(PROFILES)})")
    import json  # only a parameter file loads it
    try:
        with open(name, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ParameterError(f"parameter file {os.fspath(name)!r} is not "
                             f"UTF-8 JSON: {exc}") from None
    except OSError as exc:  # a directory, or a file it may not read
        raise ParameterError(f"parameter file {os.fspath(name)!r} cannot be "
                             f"read: {exc.strerror}") from None
    if not isinstance(data, dict):
        raise ParameterError("parameter file must contain a JSON object")
    keys = set(PhyMacParams.__dataclass_fields__)
    unknown = set(data) - keys
    if unknown:
        raise ParameterError(f"unknown parameter keys: {sorted(unknown)}")
    missing = keys - set(data)
    if missing:
        raise ParameterError(f"missing parameter keys: {sorted(missing)}")
    return PhyMacParams(**data)
