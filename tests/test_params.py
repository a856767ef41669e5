import copy
import dataclasses
import enum
import json
import math
import pickle

import numpy as np
import pytest

import oracles
from dcfkit import (ParameterError, PhyMacParams, SimConfig, critical_lambda,
                    derive_times, get_profile, linear_throughput,
                    solve_fixed_point)
from dcfkit.model import _geom_sums, _network, _slot_kernel


def collision_probability(tau, n, times, params):
    return _slot_kernel(tau, n, times, params)[0]


class TestDerivedTimes:
    def test_plcp_and_ack(self):
        assert oracles.PLCP_US == 192.0
        assert oracles.ACK_US == 304.0

    def test_success_occupancy(self, times):
        assert times.t_s == oracles.T_S_US
        assert times.t_s == 714.0

    def test_collision_occupancy(self, times):
        assert times.t_c == oracles.T_C_US
        assert times.t_c == 713.0

    def test_eifs_matches_sifs_ack_difs(self, params, times):
        difs = params.sifs + 2 * params.slot_sigma
        assert params.sifs + oracles.ACK_US + difs == params.eifs
        assert params.eifs == 364.0

    def test_difs_follows_sifs_and_slot(self, params):
        # An 802.11a-like SIFS and slot: DIFS is 16 + 2 * 9 = 34 us. The
        # profile alone cannot tell, since 10 + 2 * 20 is its DIFS of 50.
        times = derive_times(
            dataclasses.replace(params, sifs=16.0, slot_sigma=9.0))
        assert times.t_s == 192 + 156 + 16 + 1 + 304 + 34 + 1
        assert times.t_s == 704.0
        assert times.t_c == 713.0

    def test_collision_shorter_than_success(self, times):
        assert times.t_c < times.t_s


class TestParamValidation:
    def test_profile_loads(self, params):
        assert params.w0 == 32
        assert params.m == 5
        assert params.queue_capacity_k == 50

    def test_unknown_profile(self):
        with pytest.raises(ParameterError, match="dot11g-54"):
            get_profile("dot11b-legacy")

    @pytest.mark.parametrize("value", ["dot11g-54", None])
    @pytest.mark.parametrize("call", [
        pytest.param(lambda p: solve_fixed_point(1e-5, 10, p),
                     id="solve_fixed_point"),
        pytest.param(lambda p: critical_lambda(10, p), id="critical_lambda"),
        pytest.param(lambda p: linear_throughput(1e-5, 10, p),
                     id="linear_throughput"),
        pytest.param(derive_times, id="derive_times"),
    ])
    def test_params_must_be_a_parameter_record(self, call, value):
        # A profile's name goes to get_profile first; here it is refused
        # as SimConfig refuses it, not met by an AttributeError.
        with pytest.raises(ParameterError,
                           match="^params must be a PhyMacParams, got"):
            call(value)

    def test_nonpositive_duration(self, params):
        with pytest.raises(ParameterError):
            dataclasses.replace(params, sifs=0.0)

    def test_data_rate_below_basic(self, params):
        with pytest.raises(ParameterError):
            dataclasses.replace(params, data_rate=0.5)

    @pytest.mark.parametrize("overrides, message", [
        ({"w0": 1}, "w0 must be >= 2"),
        ({"m": 0}, "m must be >= 1"),
        ({"queue_capacity_k": 0}, "queue_capacity_k must be >= 1"),
        ({"prop_delta": -1.0}, "prop_delta must be finite and >= 0, got -1.0"),
        ({"basic_rate": 0.0}, "rates must be positive"),
        # A frame may carry no MAC header, but every other bit count is
        # positive.
        ({"mac_header_bits": -1}, "mac_header_bits must be >= 0"),
        *(({name: 0}, f"{name} must be >= 1")
          for name in ("plcp_bits", "ack_bits", "payload_bits")),
        # From w0 * 2^m = 2^1023 on, the stage sums overflow and every
        # solve reads NaN. m = 10**18 is refused without building w0 << m.
        *(({"w0": w0, "m": m}, f"below 2..1023, got w0 {w0} and m {m}$")
          for w0, m in ((32, 1018), (2, 1022), (32, 10**18))),
    ])
    def test_window_limits(self, params, overrides, message):
        with pytest.raises(ParameterError, match=message):
            dataclasses.replace(params, **overrides)

    def test_largest_window_solves(self, params):
        # w0 * 2^m = 2^1022, the largest window below the limit.
        big = dataclasses.replace(params, m=1017)
        report = critical_lambda(10, big)
        assert round(report.s_max, 4) == 9.0906
        assert math.isfinite(report.lambda_c)
        # Uncapped, the bracket's end tau = 1 - 1e-12 overflows
        # theta * t_bo, so t_i reads inf there; lam = 0 must still give the
        # idle solution, and a light load a finite one.
        idle = solve_fixed_point(0.0, 10, big)
        assert (idle.tau, idle.throughput, idle.iterations) == (0.0, 0.0, 2)
        light = solve_fixed_point(0.3 * report.lambda_c, 10, big)
        assert 0.0 < light.throughput < report.s_max

    @pytest.mark.parametrize("overrides", [
        {"w0": 32.5},
        {"queue_capacity_k": 2.5},
        {"payload_bits": 8200.0},
        {"m": True},
        {"ack_bits": "112"},
    ])
    def test_integer_fields_reject_non_integers(self, params, overrides):
        field = next(iter(overrides))
        with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
            PhyMacParams(**{**dataclasses.asdict(params), **overrides})

    @pytest.mark.parametrize("overrides", [
        {"sifs": "10"},
        {"data_rate": True},
        {"slot_sigma": None},
    ])
    def test_float_fields_reject_non_numbers(self, params, overrides):
        field = next(iter(overrides))
        with pytest.raises(ParameterError, match=f"^{field} must be a number"):
            PhyMacParams(**{**dataclasses.asdict(params), **overrides})

    def test_real_fields_are_stored_as_floats(self, params, cold_model):
        # float32 values equal to dot11g-54's make a record that equals it
        # and hashes alike, so it shares the network's entry:
        # asked first, its float32 fields ran the whole search in single
        # precision. Int fields stay ints.
        narrow = dataclasses.replace(params, slot_sigma=np.float32(20.0),
                                     eifs=np.float32(364.0),
                                     data_rate=np.float64(54),
                                     basic_rate=1)
        assert narrow == params and hash(narrow) == hash(params)
        for field in dataclasses.fields(narrow):
            assert type(getattr(narrow, field.name)) is (
                int if field.type == "int" else float), field.name
        report = critical_lambda(10, narrow)
        assert type(report.s_max) is float
        assert solve_fixed_point(1e-4, 10, narrow) == (
            solve_fixed_point(1e-4, 10, params))
        cold_model()
        assert critical_lambda(10, params) == report

    @pytest.mark.parametrize("overrides", [
        {"payload_bits": 10**400},
        {"data_rate": 10**400},  # an int is a number in a float field
    ])
    def test_fields_reject_integers_past_float_range(self, params, overrides):
        # A parameter file can carry a long integer literal; derive_times would
        # raise OverflowError converting it.
        field = next(iter(overrides))
        with pytest.raises(ParameterError, match=f"^{field} is too large"):
            PhyMacParams(**{**dataclasses.asdict(params), **overrides})

    @pytest.mark.parametrize("overrides", [
        pytest.param({"plcp_bits": 10**308}, id="t_s-infinite"),
        pytest.param({"payload_bits": 10**308, "data_rate": 1.0,
                      "eifs": 1.7e308}, id="only-t_c-infinite"),
        pytest.param({"mac_header_bits": int(1.7e308),
                      "payload_bits": int(1.7e308)}, id="int-sum-overflows"),
    ])
    def test_occupancy_times_must_be_finite(self, params, overrides):
        # Each field is a finite float; their sum in derive_times is not.
        with pytest.raises(ParameterError, match="^t_s or t_c is too large"):
            PhyMacParams(**{**dataclasses.asdict(params), **overrides})

    def test_json_round_trip(self, params, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dataclasses.asdict(params)))
        assert get_profile(path) == params

    def test_json_unknown_key(self, params, tmp_path):
        data = dataclasses.asdict(params)
        data["retry_limit"] = 7
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParameterError) as err:
            get_profile(path)
        assert str(err.value) == "unknown parameter keys: ['retry_limit']"

    @pytest.mark.parametrize("content", [b"{not json", b"", b"\xff{}"])
    def test_json_unreadable_names_the_file(self, tmp_path, content):
        # A JSON syntax error and bytes that are not UTF-8 are both refused
        # as bad input, naming the file.
        path = tmp_path / "params.json"
        path.write_bytes(content)
        with pytest.raises(ParameterError) as err:
            get_profile(path)
        assert str(err.value).startswith(
            f"parameter file '{path}' is not UTF-8 JSON: ")

    def test_directory_is_refused_naming_it(self, tmp_path):
        # open() raises IsADirectoryError, an OSError, on a directory.
        with pytest.raises(ParameterError) as err:
            get_profile(tmp_path)
        assert str(err.value).startswith(
            f"parameter file '{tmp_path}' cannot be read: ")

    def test_json_not_an_object(self, params, tmp_path):
        path = tmp_path / "params.json"
        path.write_text(json.dumps([dataclasses.asdict(params)]))
        with pytest.raises(ParameterError, match="must contain a JSON object"):
            get_profile(path)

    def test_json_missing_key(self, params, tmp_path):
        data = dataclasses.asdict(params)
        del data["w0"]
        path = tmp_path / "params.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParameterError) as err:
            get_profile(path)
        assert str(err.value) == "missing parameter keys: ['w0']"

    def test_profile_round_trips_through_a_file(self, tmp_path):
        # A name gives the one shared record; a file of its fields gives an
        # equal record of its own.
        profile = get_profile("dot11g-54")
        assert get_profile("dot11g-54") is profile
        path = tmp_path / "dot11g-54.json"
        path.write_text(json.dumps(dataclasses.asdict(profile)))
        copy = get_profile(path)
        assert copy == profile and copy is not profile

    @pytest.mark.parametrize("name", [0, True])
    def test_file_descriptor_is_refused(self, name, monkeypatch):
        # os.path.exists takes 0 and True as file descriptors; opening one
        # would read stdin, and closing it would close fd 0 or 1.
        def no_open(*args, **kwargs):
            raise AssertionError(f"open{args}")

        monkeypatch.setattr("builtins.open", no_open)
        with pytest.raises(ParameterError, match="must be a name or a path"):
            get_profile(name)

    def test_profile_name_wins_over_a_file(self, params, tmp_path,
                                           monkeypatch):
        monkeypatch.chdir(tmp_path)
        data = {**dataclasses.asdict(params), "w0": 16}
        (tmp_path / "dot11g-54").write_text(json.dumps(data))
        assert get_profile("dot11g-54") is params
        assert get_profile(tmp_path / "dot11g-54").w0 == 16


# One valid change per PhyMacParams field, and the point (N, lambda) where
# it must move the derived times or the fixed point's tau. A field that
# moves neither is a knob no computation reads.
NO_DEAD_N, NO_DEAD_LAM = 10, 100e-6  # 100 pkt/s, close to lambda_c
FIELD_CHANGES = {
    "mac_header_bits": 30 * 8,
    "plcp_bits": 72 + 40,
    "ack_bits": 16 * 8,
    "payload_bits": 512 * 8,
    "data_rate": 11.0,
    "basic_rate": 2.0,
    "slot_sigma": 9.0,
    "sifs": 16.0,
    "eifs": 400.0,
    "prop_delta": 2.0,
    "w0": 16,
    "m": 6,
    "queue_capacity_k": 5,
}


class TestNoDeadParameter:
    def test_every_field_has_a_change(self):
        assert list(FIELD_CHANGES) == [
            f.name for f in dataclasses.fields(PhyMacParams)]

    @pytest.mark.parametrize("field", FIELD_CHANGES)
    def test_field_moves_the_model(self, params, field):
        changed = dataclasses.replace(params, **{field: FIELD_CHANGES[field]})
        assert changed != params

        def seen(p):
            return (derive_times(p),
                    solve_fixed_point(NO_DEAD_LAM, NO_DEAD_N, p).tau)

        assert seen(changed) != seen(params)


class _Count(enum.IntEnum):
    SIXTY_FOUR = 64


class _Real(float):
    pass


def _build_sim_config(params, **kw):
    return SimConfig(**{"n_stations": 2, "lambda_per_station": 1e-5,
                        "params": params, **kw})


# Each record with one int and one float field, built from dot11g-54.
_NUMBER_RECORDS = [
    pytest.param(dataclasses.replace, "w0", "sifs", 12.5, id="PhyMacParams"),
    pytest.param(_build_sim_config, "replications", "sim_duration",
                 2e6 + 0.5, id="SimConfig"),
]


@pytest.mark.parametrize("build, int_field, float_field, real",
                         _NUMBER_RECORDS)
class TestNumberFieldStore:
    def test_exact_values_are_kept_as_given(self, params, build, int_field,
                                            float_field, real):
        count = int("1000003")  # built here, so no interned small int
        real = float(str(real))
        record = build(params, **{int_field: count, float_field: real})
        assert getattr(record, int_field) is count
        assert getattr(record, float_field) is real

    @pytest.mark.parametrize("count", [np.int64(64), _Count.SIXTY_FOUR],
                             ids=["int64", "IntEnum"])
    def test_other_integers_are_stored_as_ints(self, params, build, int_field,
                                               float_field, real, count):
        record = build(params, **{int_field: count})
        value = getattr(record, int_field)
        assert type(value) is int and value == count == 64

    @pytest.mark.parametrize("kind", [np.float64, _Real],
                             ids=["float64", "subclass"])
    def test_other_reals_are_stored_as_floats(self, params, build, int_field,
                                              float_field, real, kind):
        record = build(params, **{float_field: kind(real)})
        value = getattr(record, float_field)
        assert type(value) is float and value == real

    def test_true_is_refused(self, params, build, int_field, float_field,
                             real):
        with pytest.raises(ParameterError,
                           match=f"^{int_field} must be an integer, got True$"):
            build(params, **{int_field: True})
        with pytest.raises(ParameterError,
                           match=f"^{float_field} must be a number, got True$"):
            build(params, **{float_field: True})


# Every number field of both records, read from the records themselves, so
# a field added later is checked here with no edit. Each PhyMacParams count
# is also refused past the float range, where derive_times would overflow.
_EVERY_NUMBER_FIELD = [
    pytest.param(build, f.name, record is PhyMacParams and f.type == "int",
                 id=f"{record.__name__}-{f.name}")
    for record, build in ((PhyMacParams, dataclasses.replace),
                          (SimConfig, _build_sim_config))
    for f in dataclasses.fields(record) if f.name != "params"]


@pytest.mark.parametrize("build, field, float_count", _EVERY_NUMBER_FIELD)
def test_every_number_field_is_checked(params, build, field, float_count):
    with pytest.raises(ParameterError, match=f"^{field} must be"):
        build(params, **{field: True})
    if float_count:
        with pytest.raises(ParameterError,
                           match=f"^{field} is too large for a float$"):
            build(params, **{field: 10 ** 400})


class TestParamsKey:
    """A PhyMacParams is the model's cache key with n: it hashes once, at
    construction, as its normalised field values, and compares by them."""

    def test_a_profile_and_its_file_share_one_entry(self, params, tmp_path,
                                                    cold_model):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(dataclasses.asdict(params)))
        from_file = get_profile(path)
        assert from_file == params and hash(from_file) == hash(params)
        want = solve_fixed_point(NO_DEAD_LAM, NO_DEAD_N, params)
        assert solve_fixed_point(NO_DEAD_LAM, NO_DEAD_N, from_file) == want
        info = _network.cache_info()
        assert (info.currsize, info.misses, info.hits) == (1, 1, 1)

    @pytest.mark.parametrize("field", FIELD_CHANGES)
    def test_one_changed_field_is_another_key(self, params, field,
                                              cold_model):
        changed = dataclasses.replace(params, **{field: FIELD_CHANGES[field]})
        assert changed != params and hash(changed) != hash(params)
        assert _network(NO_DEAD_N, changed) is not _network(NO_DEAD_N, params)
        assert _network.cache_info().currsize == 2

    @pytest.mark.parametrize("clone", [
        copy.copy, lambda p: pickle.loads(pickle.dumps(p))])
    def test_a_copy_equals_and_hashes_alike(self, params, clone):
        twin = clone(params)
        assert twin == params and twin is not params
        assert hash(twin) == hash(params)
        assert repr(twin) == repr(params)
        rebuilt = PhyMacParams(**dataclasses.asdict(twin))
        assert hash(rebuilt) == hash(params)


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
