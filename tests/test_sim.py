import csv
import dataclasses
import hashlib
import math
from statistics import fmean

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import stdtrit

import oracles
from dcfkit import (ParameterError, ReplicationResult, SimConfig,
                    critical_lambda, derive_times, linear_throughput,
                    solve_fixed_point)
from dcfkit.cli import main
from dcfkit.sim import (_STATION_COUNTERS, _ci95_halfwidth, _station_rng,
                        _t975, _t_tail, run, run_replication)


def cfg_for(params, n, lam, duration=2e6, warmup=1e5, reps=2, seed=977):
    return SimConfig(n_stations=n, lambda_per_station=lam, params=params,
                     sim_duration=duration, warmup=warmup, replications=reps,
                     base_seed=seed)


class TestDeterminism:
    def test_replication_bitwise_repeatable(self, params):
        cfg = cfg_for(params, 5, 6e-5)
        assert run_replication(cfg, 42) == run_replication(cfg, 42)

    def test_run_repeatable(self, params):
        cfg = cfg_for(params, 4, 4e-5, reps=3)
        assert run(cfg) == run(cfg)

    def test_seeds_differ(self, params):
        cfg = cfg_for(params, 5, 6e-5)
        a = run_replication(cfg, 1)
        b = run_replication(cfg, 2)
        assert a.throughput != b.throughput

    def test_replication_seeds_are_sequential(self, params):
        cfg = cfg_for(params, 3, 5e-5, reps=3, seed=100)
        result = run(cfg)
        singles = tuple(run_replication(cfg, 100 + i) for i in range(3))
        assert result.replications == singles
        assert result.per_replication == tuple(r.throughput for r in singles)


def first_draws(seed, sid, k=8):
    rng = _station_rng(seed, sid)
    return [rng.random() for _ in range(k)]


class TestStreams:
    @pytest.mark.parametrize("stage", [0, 5])
    def test_backoff_draws_uniform(self, params, stage):
        # The window after `stage` collisions: w0, and w0 * 2**m at stage m.
        w = params.w0 << stage
        rng = _station_rng(4, stage)
        counts = [0] * w
        for _ in range(50 * w):
            counts[rng.randrange(w)] += 1
        assert stats.chisquare(counts).pvalue > 1e-3

    def test_inter_arrivals_exponential(self, params, tmp_path):
        # Arrival and drop rows carry the drawn arrival time itself, not
        # the slot boundary it takes effect at.
        lam = 1e-4
        path = tmp_path / "trace.csv"
        cfg = cfg_for(params, 2, lam, duration=1e8, warmup=0.0)
        run_replication(cfg, 23, trace=path)
        with open(path, newline="") as fh:
            times = [float(r["time_us"]) for r in csv.DictReader(fh)
                     if r["station_id"] == "1"
                     and r["event"] in ("arrival", "drop")]
        gaps = [b - a for a, b in zip([0.0] + times, times)]
        assert len(gaps) > 9000
        ks = stats.kstest(gaps, "expon", args=(0.0, 1.0 / lam))
        assert ks.pvalue > 1e-3

    def test_replication_draws_from_station_streams(self, params, tmp_path):
        lam, seed = 2e-4, 29
        path = tmp_path / "trace.csv"
        run_replication(cfg_for(params, 4, lam, duration=1e5, warmup=0.0),
                        seed, trace=path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for sid in range(4):
            first = next(r for r in rows if r["station_id"] == str(sid))
            want = _station_rng(seed, sid).expovariate(lam)
            assert first["time_us"] == format(want, ".10g")
        # A lone station's first packet wakes it at the first slot boundary
        # at or past the arrival and draws randrange(w0) right after the
        # arrival's expovariate; only idle slots come before its success.
        # Windows 3 and 17 reject some first draws in these ten seeds.
        for w0 in (3, 17, 32):
            p = dataclasses.replace(params, w0=w0)
            cfg = cfg_for(p, 1, lam, duration=1e5, warmup=0.0)
            for seed in range(29, 39):
                run_replication(cfg, seed, trace=path)
                with open(path, newline="") as fh:
                    done = next(r for r in csv.DictReader(fh)
                                if r["event"] == "success")
                rng = _station_rng(seed, 0)
                woken = math.ceil(rng.expovariate(lam) / p.slot_sigma)
                slots = round(float(done["time_us"]) / p.slot_sigma) - woken
                assert slots == rng.randrange(w0), (w0, seed)

    @pytest.mark.parametrize("a, b", [
        # the same stream under (seed << 20) | sid
        ((1, 0), (1, 1 << 20)),
        ((0, 1 << 20), (1, 1 << 20)),
        # the same stream under plain digit concatenation
        ((1, 23), (12, 3)),
        ((2**100, 7), (2**100 + 1, 7)),
    ])
    def test_streams_differ(self, a, b):
        assert first_draws(*a) != first_draws(*b)

    def test_stations_of_one_replication_differ(self):
        draws = {tuple(first_draws(7, sid, k=2)) for sid in range(200)}
        assert len(draws) == 200


# sha256 of repr() of these fields, recorded with each station drawing from
# random.Random(f"{seed}/{sid}") through its expovariate and randrange
# methods and checked equal to the per-station slot scan on those streams.
# The simulator writes those two formulas out over random() and
# getrandbits(), so these digests also tie it to the stdlib methods. Any
# change to a simulated value, a stream, a draw order or the float
# accumulation of end_time shows here. zero-rate draws nothing, so its
# digest predates the stdlib streams; w0-31-m-6 has a window that is not a
# power of two at every stage, where randrange rejects some draws.
_PINNED_FIELDS = (
    "throughput", "end_time", "successes", "measured_successes",
    "collisions", "collision_participations", "drops", "arrivals",
    "per_station_arrivals", "per_station_successes", "per_station_drops",
    "final_queue_lengths")

_TINY = {"queue_capacity_k": 1, "w0": 2, "m": 1}

_PINNED = {
    # name: (n, lambda pkt/us, duration, warmup, seed, params changes, sha)
    "zero-rate": (5, 0.0, 1e6, 1e5, 3, {},
                  "8babe094e1a54e54f8e8df2431ae78df"
                  "8236bdc7cf87229888adff7c3d48fedc"),
    "single-saturated": (1, 1e-2, 2e6, 1e5, 5, {},
                         "1d1c880a275247f8c492eb88b127ba69"
                         "2805bab03232a1e35604eb23fc6e82b6"),
    "n10-0.3-lambda-c": (10, 0.3 * 110.594e-6, 2e6, 1e5, 7, {},
                         "635f9a3fe24e163f29b87f8a80024f9b"
                         "4f97d1824a6f8857157240e306c4b48a"),
    "n50-3-lambda-c": (50, 3 * 20.643e-6, 1e6, 2e5, 11, {},
                       "8fc7e0484182041226c2cfdd59a42022"
                       "5f59b0dfdf7217be5b9092654e433477"),
    "k1-w0-2-m-1": (8, 5e-4, 1e6, 1e5, 13, _TINY,
                    "7406990bf8aa3149b85ef081b1b629e1"
                    "c3fd0a109082dd1761ebcd9e20bc3d99"),
    "no-warmup": (4, 1e-4, 1e6, 0.0, 17, {},
                  "e41dd1c33c0a9c165b1d1aa4b49b2391"
                  "20d14b4da33e2b240f7d03ec5a3bde49"),
    "w0-31-m-6": (20, 2e-4, 1e6, 1e5, 23, {"w0": 31, "m": 6},
                  "d9fdcf5ade3b4721615b629e4a9192dc"
                  "fc187f13a2d55aaa831510a417a3d926"),
}


def tiny_window(params):
    """K = 1, w0 = 2, m = 1: frequent collisions and drops."""
    return dataclasses.replace(params, **_TINY)


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_replication_matches_recorded_digest(self, params, name):
        n, lam, duration, warmup, seed, changes, want = _PINNED[name]
        p = dataclasses.replace(params, **changes)
        cfg = cfg_for(p, n, lam, duration=duration, warmup=warmup, reps=1)
        rep = run_replication(cfg, seed)
        values = tuple(getattr(rep, f) for f in _PINNED_FIELDS)
        assert hashlib.sha256(repr(values).encode()).hexdigest() == want


class TestConservation:
    @pytest.mark.parametrize("lam", [2e-5, 2e-4, 1e-3])
    def test_arrivals_balance(self, params, lam):
        cfg = cfg_for(params, 6, lam, duration=1e6)
        rep = run_replication(cfg, 5)
        for a, s, d, q in zip(rep.per_station_arrivals,
                              rep.per_station_successes,
                              rep.per_station_drops,
                              rep.final_queue_lengths):
            assert a == s + d + q
        assert rep.arrivals == sum(rep.per_station_arrivals)

    def test_queue_never_exceeds_capacity(self, params):
        tight = dataclasses.replace(params, queue_capacity_k=3)
        cfg = cfg_for(tight, 4, 5e-4, duration=1e6)
        rep = run_replication(cfg, 9)
        assert rep.drops > 0
        assert all(q <= 3 for q in rep.final_queue_lengths)

    def test_zero_rate_is_silent(self, params):
        cfg = cfg_for(params, 5, 0.0, duration=1e6, warmup=0.0)
        rep = run_replication(cfg, 3)
        assert rep.arrivals == 0
        assert rep.successes == 0
        assert rep.throughput == 0.0

    def test_arrival_time_past_the_float_range(self, params):
        # At 1e-312 pkt/us every station's first arrival time overflows to
        # inf: the run is one idle jump to the first slot boundary at or
        # past sim_duration.
        cfg = cfg_for(params, 5, 1e-312, duration=1e6 + 7, warmup=0.0)
        rep = run_replication(cfg, 3)
        assert rep.arrivals == 0
        assert rep.virtual_slots == 50_001
        assert rep.end_time == 50_001 * params.slot_sigma


class TestAgainstClosedForms:
    def test_single_station_saturated(self, params):
        # One station never collides; throughput is payload over the mean
        # backoff-plus-exchange cycle.
        cfg = cfg_for(params, 1, 1e-2, duration=1e7, warmup=1e5, reps=3)
        result = run(cfg)
        want = oracles.single_station_saturated_throughput()
        assert result.mean_throughput == pytest.approx(want, rel=0.02)
        assert result.collisions == 0

    def test_unsaturated_carries_offered_load(self, params):
        report = critical_lambda(10, params)
        lam = 0.2 * report.lambda_c
        cfg = cfg_for(params, 10, lam, duration=2e7, warmup=1e6, reps=2)
        result = run(cfg)
        offered = linear_throughput(lam, 10, params)
        assert result.mean_throughput == pytest.approx(offered, rel=0.05)

    def test_saturated_collision_fraction(self, params):
        # With every queue backlogged the per-attempt collision ratio
        # approaches the saturated fixed point's p. Stock windows keep the
        # mean-field decoupling assumption accurate; tiny w0/m configs
        # correlate the stations too strongly for this comparison.
        sat = solve_fixed_point(math.inf, 4, params)
        cfg = cfg_for(params, 4, 1e-3, duration=4e7, warmup=1e5)
        rep = run_replication(cfg, 21)
        attempts = rep.collision_participations + rep.successes
        assert rep.collision_participations / attempts == pytest.approx(
            sat.p, rel=0.05)

    def test_retry_rule_matches_the_model_past_saturation(self, params):
        # Both views drop a packet after m + 1 failed attempts, so at
        # N = 50, 3 lambda_c the attempts per virtual slot and per station
        # and the share of attempts that collide are the model's tau and
        # p. A 65-s run and a 5-s run of one seed share their first 5 s,
        # so their counter differences drop the warm-up. Bianchi's rule,
        # retrying at stage m for ever, reads -7.95% and -5.75% here, so
        # the 1% bound tells the two rules apart.
        n = 50
        lam = 3 * critical_lambda(n, params).lambda_c
        sol = solve_fixed_point(lam, n, params)
        attempts = collided = slots = 0
        for seed in range(7, 12):
            short, long = (run_replication(
                cfg_for(params, n, lam, duration=d, warmup=0.0), seed)
                for d in (5e6, 65e6))
            attempts += (long.successes + long.collision_participations
                         - short.successes - short.collision_participations)
            collided += (long.collision_participations
                         - short.collision_participations)
            slots += long.virtual_slots - short.virtual_slots
        assert attempts / (n * slots) == pytest.approx(sol.tau, rel=0.01)
        assert collided / attempts == pytest.approx(sol.p, rel=0.01)

    def test_saturated_throughput_insensitive_to_lambda(self, params):
        report = critical_lambda(5, params)
        runs = []
        for factor in (3.0, 5.0):
            cfg = cfg_for(params, 5, factor * report.lambda_c,
                          duration=5e6, warmup=5e5, reps=3, seed=55)
            runs.append(run(cfg))
        gap = abs(runs[0].mean_throughput - runs[1].mean_throughput)
        assert gap <= runs[0].ci95_halfwidth + runs[1].ci95_halfwidth + 1e-9


class TestAggregation:
    def test_single_replication_ci_is_none(self, params):
        cfg = cfg_for(params, 3, 5e-5, reps=1)
        result = run(cfg)
        assert result.ci95_halfwidth is None
        assert result.mean_throughput == result.per_replication[0]

    def test_ci_positive_with_replications(self, params):
        cfg = cfg_for(params, 3, 5e-5, reps=4)
        result = run(cfg)
        assert result.ci95_halfwidth > 0.0
        assert len(result.per_replication) == 4

    def test_ci_equals_student_t_formula(self):
        for n in range(2, 51):
            values = [1.0 + 0.37 * ((7 * i) % 11) for i in range(n)]
            mean = fmean(values)
            var = sum((v - mean) ** 2 for v in values) / (n - 1)
            want = _t975(n - 1) * math.sqrt(var / n)
            assert _ci95_halfwidth(values) == want, n

    def test_t975_against_scipy(self):
        # scipy's own quantile is not exact (19 ulps off at df = 6), so
        # the in-package one is held to a relative tolerance of it.
        for df in range(1, 1001):
            want = stdtrit(df, 0.975)
            assert _t975(df) == pytest.approx(want, rel=1e-14, abs=0), df
        assert _t975(10_000) == pytest.approx(stdtrit(10_000, 0.975),
                                              rel=1e-12, abs=0)
        # Closed forms at df = 1 (Cauchy) and df = 2.
        assert _t975(1) == pytest.approx(math.tan(0.475 * math.pi),
                                         rel=1e-14, abs=0)
        assert _t975(2) == pytest.approx(0.95 * math.sqrt(2 / 0.0975),
                                         rel=1e-14, abs=0)
        # The root lies inside the bracket at both ends of the df range.
        for df in (1, 10_000):
            assert _t_tail(1.9, df) > 0.025 > _t_tail(13.0, df), df

    def test_run_sums_replication_counters(self, params):
        cfg = cfg_for(params, 6, 2e-4, duration=1e6, warmup=1e5, reps=3)
        result = run(cfg)
        reps = [run_replication(cfg, cfg.base_seed + i) for i in range(3)]
        # Every integer counter and station total, so a new one is checked
        # with no edit here.
        counters = [f.name for f in dataclasses.fields(ReplicationResult)
                    if f.type in (int, "int")]
        assert "collisions" in counters
        for field in counters + list(_STATION_COUNTERS):
            assert getattr(result, field) == sum(
                getattr(r, field) for r in reps), field
        assert result.collision_participations >= 2 * result.collisions > 0
        # sim_time / virtual_slots is then the exact mean virtual slot.
        assert result.sim_time == math.fsum(r.end_time for r in reps)
        assert result.sim_time >= 3 * cfg.sim_duration

    def test_throughput_matches_counters(self, params):
        cfg = cfg_for(params, 5, 8e-5, duration=1e6, warmup=2e5)
        rep = run_replication(cfg, 31)
        want = rep.measured_successes * params.payload_bits / (
            rep.end_time - cfg.warmup)
        assert rep.throughput == want


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 30),
           lam=st.one_of(st.just(0.0), st.floats(1e-7, 5e-3)),
           k=st.integers(1, 20), w0=st.sampled_from([2, 3, 4, 16, 31, 32]),
           m=st.integers(1, 6), duration=st.floats(1e4, 2e5),
           warmup_share=st.floats(0.0, 0.99), seed=st.integers(0, 2**32))
    def test_conserves_packets_and_repeats(self, params, n, lam, k, w0, m,
                                           duration, warmup_share, seed):
        p = dataclasses.replace(params, queue_capacity_k=k, w0=w0, m=m)
        cfg = cfg_for(p, n, lam, duration=duration,
                      warmup=warmup_share * duration, reps=1)
        rep = run_replication(cfg, seed)
        for a, s, d, r, q in zip(rep.per_station_arrivals,
                                 rep.per_station_successes,
                                 rep.per_station_drops,
                                 rep.per_station_retry_drops,
                                 rep.final_queue_lengths):
            assert a == s + d + q
            assert 0 <= r <= d
            assert 0 <= q <= k
        assert rep.arrivals == sum(rep.per_station_arrivals)
        assert rep.successes == sum(rep.per_station_successes)
        assert rep.drops == sum(rep.per_station_drops)
        assert rep.measured_successes <= rep.successes
        assert rep.collision_participations >= 2 * rep.collisions
        # Every run, lambda = 0 too, is a whole number of virtual slots
        # ending at the first slot boundary at or past sim_duration.
        t = derive_times(p)
        idle = rep.virtual_slots - rep.successes - rep.collisions
        assert rep.end_time == pytest.approx(
            idle * p.slot_sigma + rep.successes * t.t_s
            + rep.collisions * t.t_c, rel=1e-12)
        assert (cfg.sim_duration <= rep.end_time
                < cfg.sim_duration + max(p.slot_sigma, t.t_s, t.t_c))
        assert run_replication(cfg, seed) == rep


class TestVirtualSlots:
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_end_time_from_slot_counts(self, params, name):
        n, lam, duration, warmup, seed, changes, _ = _PINNED[name]
        p = dataclasses.replace(params, **changes)
        t = derive_times(p)
        cfg = cfg_for(p, n, lam, duration=duration, warmup=warmup, reps=1)
        rep = run_replication(cfg, seed)
        idle = rep.virtual_slots - rep.successes - rep.collisions
        assert idle >= 0
        want = (idle * p.slot_sigma + rep.successes * t.t_s
                + rep.collisions * t.t_c)
        assert rep.end_time == pytest.approx(want, rel=1e-12)


class TestTrace:
    def test_trace_contents(self, params, tmp_path):
        path = tmp_path / "trace.csv"
        cfg = cfg_for(params, 3, 2e-4, duration=2e5, warmup=0.0)
        rep = run_replication(cfg, 13, trace=path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "trace must not be empty"
        kinds = {r["event"] for r in rows}
        assert kinds <= {"arrival", "success", "collision", "drop"}
        times = [float(r["time_us"]) for r in rows]
        assert times == sorted(times)
        assert all(0 <= int(r["queue_len"]) <= params.queue_capacity_k
                   for r in rows)
        n_success = sum(1 for r in rows if r["event"] == "success")
        assert n_success == rep.successes
        n_collision = sum(1 for r in rows if r["event"] == "collision")
        assert n_collision == rep.collision_participations

    def test_collision_ties_in_station_order(self, params, tmp_path):
        # Rows sharing a timestamp (the stations of one collision) come out
        # in ascending station_id; the bytes are the recorded rows sorted
        # on (time_us, station_id). A retry_drop row comes right after its
        # station's collision row, with the same time_us.
        path = tmp_path / "trace.csv"
        cfg = cfg_for(tiny_window(params), 6, 5e-4, duration=5e4,
                      warmup=0.0)
        rep = run_replication(cfg, 19, trace=path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        dropped = [(a, b) for a, b in zip(rows, rows[1:])
                   if b["event"] == "retry_drop"]
        assert len(dropped) == rep.retry_drops > 0
        assert all((a["event"], a["time_us"], a["station_id"])
                   == ("collision", b["time_us"], b["station_id"])
                   for a, b in dropped)
        ties = [(a, b) for a, b in zip(rows, rows[1:])
                if a["time_us"] == b["time_us"]
                and b["event"] != "retry_drop"]
        assert len(ties) > 30
        assert all(int(a["station_id"]) < int(b["station_id"])
                   for a, b in ties)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == ("225947107f9abfce0b70572516789ac2"
                          "c077d7c35ec69720ef1adc4438a982f5")

    def test_run_writes_one_trace_per_replication(self, params, tmp_path):
        cfg = cfg_for(params, 2, 1e-4, duration=1e5, warmup=0.0, reps=3)
        traced = run(cfg, trace_dir=tmp_path)
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["rep000.csv", "rep001.csv", "rep002.csv"]
        assert traced == run(cfg)


class TestConfigValidation:
    @pytest.mark.parametrize("value", ["dot11g-54", None])
    def test_params_must_be_a_parameter_record(self, value):
        # A profile name is no PhyMacParams: run_replication would fail on
        # its first field read.
        with pytest.raises(ParameterError,
                           match="^params must be a PhyMacParams, got"):
            SimConfig(n_stations=2, lambda_per_station=1e-5, params=value)

    @pytest.mark.parametrize("seed", [1.0, True, -1])
    def test_replication_seed_is_refused_like_base_seed(self, params, seed):
        # The streams are keyed by the seed's text, so 1.0 and True would
        # run other streams than 1.
        cfg = cfg_for(params, 5, 50e-6, duration=2e5, warmup=0.0)
        with pytest.raises(ParameterError, match="^seed must be"):
            run_replication(cfg, seed)
        with pytest.raises(ParameterError, match="^base_seed must be"):
            dataclasses.replace(cfg, base_seed=seed)

    def test_numpy_integer_seed_runs_the_int_stream(self, params):
        cfg = cfg_for(params, 5, 50e-6, duration=2e5, warmup=0.0,
                      seed=np.int64(1))
        assert run_replication(cfg, np.int64(1)) == run_replication(cfg, 1)

    def test_rejects_infinite_rate(self, params):
        with pytest.raises(ParameterError):
            SimConfig(n_stations=2, lambda_per_station=math.inf, params=params)

    def test_rejects_warmup_beyond_duration(self, params):
        with pytest.raises(ParameterError):
            SimConfig(n_stations=2, lambda_per_station=1e-5, params=params,
                      sim_duration=1e5, warmup=1e5)

    @pytest.mark.parametrize("duration", [math.inf, math.nan])
    def test_rejects_non_finite_duration(self, params, duration):
        with pytest.raises(ParameterError, match="sim_duration must"):
            SimConfig(n_stations=2, lambda_per_station=1e-5, params=params,
                      sim_duration=duration, warmup=0.0)

    def test_rejects_zero_stations(self, params):
        with pytest.raises(ParameterError):
            SimConfig(n_stations=0, lambda_per_station=1e-5, params=params)

    @pytest.mark.parametrize("field, value, message", [
        ("replications", 0, "replications must be >= 1"),
        ("base_seed", -1, "base_seed must be >= 0"),
    ])
    def test_rejects_counts_out_of_range(self, params, field, value,
                                         message):
        with pytest.raises(ParameterError, match=f"^{message}$"):
            SimConfig(n_stations=2, lambda_per_station=1e-5, params=params,
                      **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("n_stations", 2.0), ("n_stations", True), ("replications", 1.5),
        ("replications", True), ("base_seed", 1.5), ("base_seed", "7"),
    ])
    def test_rejects_non_integer_counts(self, params, field, value):
        kwargs = dict(n_stations=2, lambda_per_station=1e-5, params=params)
        kwargs[field] = value
        with pytest.raises(ParameterError, match=f"^{field} must be an integer"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("field, value", [
        ("lambda_per_station", "1e-5"), ("sim_duration", True),
        ("warmup", "0"),
    ])
    def test_rejects_non_number_times(self, params, field, value):
        kwargs = dict(n_stations=2, lambda_per_station=1e-5, params=params)
        kwargs[field] = value
        with pytest.raises(ParameterError, match=f"^{field} must be a number"):
            SimConfig(**kwargs)

    @pytest.mark.parametrize("command, flags", [
        pytest.param("sim", ["--replications", "1.5"],
                     id="sim-replications-1.5"),
        pytest.param("sim", ["--seed", "1.5"], id="sim-base-seed-1.5"),
        pytest.param("sim", ["--replications", "true"],
                     id="sim-replications-true"),
        # sweep adds a per-point offset to base_seed; "true" is no seed
        pytest.param("sweep", ["--seed", "true"], id="sweep-base-seed-true"),
    ])
    def test_cli_refuses_non_integer_config(self, capsys, command, flags):
        point = {"sim": ["--n", "2", "--lambda", "40"],
                 "sweep": ["--n", "2", "--lambda-grid", "40", "--with-sim"]}
        assert main([command, *point[command], "--duration-us", "1e5",
                     "--warmup-us", "0", *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
