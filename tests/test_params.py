import dataclasses
import json

import numpy as np
import pytest

import oracles
from dcfkit import (PROFILES, ParameterError, PhyMacParams, get_profile,
                    load_params, throughput_tau_form)
from dcfkit.model import _slot_kernel
from dcfkit.params import _geom_sums


def collision_probability(tau, n, times, params):
    return _slot_kernel(tau, n, times, params)[0]


class TestDerivedTimes:
    def test_plcp_and_ack(self, times):
        assert times.t_plcp == 192.0
        assert times.t_ack == 304.0

    def test_success_occupancy(self, times):
        assert times.t_s == oracles.T_S_US
        assert times.t_s == 714.0

    def test_collision_occupancy(self, times):
        assert times.t_c == oracles.T_C_US
        assert times.t_c == 713.0

    def test_eifs_matches_sifs_ack_difs(self, params, times):
        assert params.sifs + times.t_ack + params.difs == params.eifs
        assert params.eifs == 364.0

    def test_collision_shorter_than_success(self, times):
        assert times.t_c < times.t_s


class TestParamValidation:
    def test_profile_loads(self, params):
        assert params.w0 == 32
        assert params.m == 5
        assert params.w_max == 1024
        assert params.queue_capacity_k == 50

    def test_unknown_profile(self):
        with pytest.raises(ParameterError):
            get_profile("dot11b-legacy")

    def test_w_max_mismatch(self, params):
        with pytest.raises(ParameterError):
            dataclasses.replace(params, w_max=512)

    def test_nonpositive_duration(self, params):
        with pytest.raises(ParameterError):
            dataclasses.replace(params, sifs=0.0)

    def test_data_rate_below_basic(self, params):
        with pytest.raises(ParameterError):
            dataclasses.replace(params, data_rate=0.5)

    @pytest.mark.parametrize("overrides, message", [
        ({"w0": 1, "w_max": 32}, "w0 must be >= 2"),
        ({"m": 0, "w_max": 32}, "m must be >= 1"),
    ])
    def test_window_limits(self, params, overrides, message):
        # w_max stays w0 * 2**m, so only the limit itself can refuse.
        with pytest.raises(ParameterError, match=message):
            dataclasses.replace(params, **overrides)

    @pytest.mark.parametrize("overrides", [
        {"w0": 32.5, "w_max": 1040},  # w_max == w0 * 2**m holds
        {"queue_capacity_k": 2.5},
        {"payload_bits": 8200.0},
        {"m": True, "w_max": 64},
        {"ack_bits": "112"},
    ])
    def test_integer_fields_reject_non_integers(self, params, overrides):
        field = next(iter(overrides))
        with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
            PhyMacParams.from_dict({**params.as_dict(), **overrides})

    @pytest.mark.parametrize("overrides", [
        {"sifs": "10"},
        {"data_rate": True},
        {"slot_sigma": None},
    ])
    def test_float_fields_reject_non_numbers(self, params, overrides):
        field = next(iter(overrides))
        with pytest.raises(ParameterError, match=f"^{field} must be a number"):
            PhyMacParams.from_dict({**params.as_dict(), **overrides})

    @pytest.mark.parametrize("overrides", [
        {"payload_bits": 10**400},
        {"data_rate": 10**400},  # an int is a number in a float field
    ])
    def test_fields_reject_integers_past_float_range(self, params, overrides):
        # A JSON config can carry a long integer literal; derive_times would
        # raise OverflowError converting it.
        field = next(iter(overrides))
        with pytest.raises(ParameterError, match=f"^{field} is too large"):
            PhyMacParams.from_dict({**params.as_dict(), **overrides})

    def test_json_round_trip(self, params, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(params.as_dict()))
        assert load_params(path) == params

    def test_json_unknown_key(self, params, tmp_path):
        data = params.as_dict()
        data["retry_limit"] = 7
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParameterError):
            load_params(path)

    def test_json_missing_key(self, params, tmp_path):
        data = params.as_dict()
        del data["w0"]
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParameterError):
            load_params(path)

    def test_from_dict_matches_profile_table(self):
        assert PhyMacParams.from_dict(PROFILES["dot11g-54"]) == get_profile(
            "dot11g-54")


class TestGeomQuantities:
    def test_zero_collision_limits(self):
        gamma, epsilon, theta, alpha = _geom_sums(0.0, 32, 5)
        assert gamma == 1.0
        assert epsilon == 1.0
        assert theta == 15.5
        assert alpha == 16.5

    def test_half_needs_no_special_case(self):
        gamma, epsilon, _, _ = _geom_sums(0.5, 32, 5)
        assert gamma == pytest.approx(6.0, rel=1e-14)
        assert epsilon == pytest.approx(oracles.geom_epsilon(0.5, 5),
                                        rel=1e-14)

    def test_continuity_around_half(self):
        below = _geom_sums(0.5 - 1e-9, 32, 5)[0]
        above = _geom_sums(0.5 + 1e-9, 32, 5)[0]
        assert abs(below - 6.0) < 1e-6
        assert abs(above - 6.0) < 1e-6

    def test_certain_collision(self):
        gamma, epsilon, _, _ = _geom_sums(1.0, 32, 5)
        assert epsilon == 6.0
        assert gamma == oracles.geom_gamma(1.0, 5)

    def test_quarter_against_summation(self):
        gamma, epsilon, theta, alpha = _geom_sums(0.25, 32, 5)
        assert gamma == pytest.approx(oracles.geom_gamma(0.25, 5), rel=1e-15)
        assert epsilon == pytest.approx(oracles.geom_epsilon(0.25, 5),
                                        rel=1e-15)
        assert theta == pytest.approx(oracles.geom_theta(0.25, 32, 5),
                                      rel=1e-15)
        assert alpha == pytest.approx(oracles.geom_alpha(0.25, 32, 5),
                                      rel=1e-15)

    def test_quarter_frozen_values(self):
        gamma, epsilon, theta, alpha = _geom_sums(0.25, 32, 5)
        assert gamma == 1.96875
        assert epsilon == 1.3330078125
        assert theta == 30.83349609375
        assert alpha == 32.16650390625

    def test_alpha_minus_theta_is_epsilon(self):
        rng = np.random.default_rng(20260819)
        for p in rng.uniform(0.0, 1.0, size=10_000):
            _, epsilon, theta, alpha = _geom_sums(float(p), 32, 5)
            assert abs(alpha - theta - epsilon) <= 1e-12 * epsilon


class TestCollisionProbability:
    def test_single_station_never_collides(self, params, times):
        assert collision_probability(0.3, 1, times, params) == 0.0

    def test_zero_tau(self, params, times):
        assert collision_probability(0.0, 10, times, params) == 0.0

    def test_certain(self, params, times):
        assert collision_probability(1.0, 2, times, params) == 1.0

    def test_frozen_example(self, params, times):
        assert collision_probability(0.1, 10, times, params) == pytest.approx(
            0.612579511, abs=1e-9)

    def test_monotone_in_tau_and_n(self, params, times):
        taus = np.linspace(0.0, 1.0, 101)
        values = [collision_probability(float(t), 10, times, params)
                  for t in taus]
        assert all(b >= a for a, b in zip(values, values[1:]))
        for tau in (0.01, 0.1, 0.3):
            by_n = [collision_probability(tau, n, times, params)
                    for n in range(1, 40)]
            assert all(b >= a for a, b in zip(by_n, by_n[1:]))

    def test_domain(self, params):
        # tau and n are checked where they enter the collision probability.
        with pytest.raises(ValueError):
            throughput_tau_form(-0.2, 5, params)
        with pytest.raises(ValueError):
            throughput_tau_form(1.2, 5, params)
        with pytest.raises(ParameterError):
            throughput_tau_form(0.5, 0, params)
