import dataclasses
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import optimize

import oracles
from dcfkit import (ConvergenceError, FixedPointSolution, ParameterError,
                    cli, critical_lambda, derive_times, get_profile,
                    linear_throughput, solve_fixed_point)
from dcfkit.model import (_BRACKET, _ROOTS_PER_NETWORK, _RTOL, _SAT_MARGIN,
                          _XTOL, _brentq, _geom_sums, _network,
                          _queue_empty_probability, _s_of_tau,
                          _slot_kernel, _state_at)


def small_chain_params():
    base = get_profile("dot11g-54")
    return dataclasses.replace(base, w0=4, m=2)


class TestSlotTimes:
    def test_no_contention(self, params, times):
        _, t_tx, t_bo, *_ = _slot_kernel(0.0, 10, times, params)
        assert t_tx == times.t_s
        assert t_bo == params.slot_sigma

    def test_certain_collision(self, params, times):
        _, t_tx, t_bo, *_ = _slot_kernel(1.0, 5, times, params)
        assert t_tx == times.t_c
        assert t_bo == times.t_c

    def test_mix_from_collision_probability(self, params, times):
        p, t_tx, t_bo, *_ = _slot_kernel(0.1, 10, times, params)
        assert t_tx == pytest.approx((1 - p) * 714.0 + p * 713.0, rel=1e-15)
        assert t_tx == pytest.approx(713.387420489, abs=1e-9)
        assert t_bo == pytest.approx((1 - p) * 20.0 + p * t_tx, rel=1e-15)


class TestQueueService:
    def test_collision_free_window(self, params, times):
        # With no contention a packet takes one attempt: a stage-0 backoff
        # of (w0 - 1) / 2 = 15.5 slots of sigma, then a success.
        idle = solve_fixed_point(0.0, 10, params)
        assert idle.t_packet == 15.5 * params.slot_sigma + times.t_s
        assert idle.t_packet == 1024.0

    @pytest.mark.parametrize("n", [1, 2, 10, 50, 100])
    def test_queue_service_is_one_packet(self, params, n):
        # At saturation a packet leaves the chain every t_packet = alpha *
        # t_i on average, a success with probability 1 - p^(m+1), and the
        # chain's successes per us are tau (1 - p) / t_i. The queue's
        # rho = lam * t_packet serves a packet in that same time.
        sat = solve_fixed_point(math.inf, n, params)
        delivered = sat.tau * (1.0 - sat.p) / sat.t_i * sat.t_packet
        assert delivered == pytest.approx(1.0 - sat.p ** (params.m + 1),
                                          rel=0, abs=1e-12)


class TestIdleSlotTime:
    def test_no_contention(self, params, times):
        value = _slot_kernel(0.0, 10, times, params)[5]
        want = (714.0 + 15.5 * 20.0) / 16.5
        assert value == pytest.approx(want, rel=1e-15)
        assert value == pytest.approx(62.0606060606, abs=1e-9)
        assert solve_fixed_point(0.0, 10, params).t_i == value

    def test_quarter_against_summed_weights(self, params):
        eps = oracles.geom_epsilon(0.25, 5)
        theta = oracles.geom_theta(0.25, 32, 5)
        alpha = oracles.geom_alpha(0.25, 32, 5)
        want = (eps * 713.9 + theta * 25.0) / alpha
        # With two stations the kernel's p is tau. Equal success and
        # collision times make t_tx 713.9 us, and sigma is chosen so the
        # backoff mix t_bo is 25 us.
        times = SimpleNamespace(t_s=713.9, t_c=713.9)
        knobs = SimpleNamespace(slot_sigma=(25.0 - 0.25 * 713.9) / 0.75,
                                w0=params.w0, m=params.m)
        value = _slot_kernel(0.25, 2, times, knobs)[5]
        assert value == pytest.approx(want, rel=1e-12)
        assert value == pytest.approx(53.548613324832644, rel=1e-12)


class TestQueueEmptyProbability:
    def test_empty_system(self):
        assert _queue_empty_probability(0.0, 50) == 1.0

    def test_balanced_load_limit(self):
        assert _queue_empty_probability(1.0, 50) == pytest.approx(
            1.0 / 51, rel=1e-12)
        near = _queue_empty_probability(1.0 - 1e-12, 50)
        assert near == pytest.approx(1.0 / 51, rel=1e-6)

    def test_small_example(self):
        assert _queue_empty_probability(0.5, 2) == pytest.approx(
            oracles.queue_empty_sum(0.5, 2), rel=1e-15)
        assert _queue_empty_probability(0.5, 2) == pytest.approx(
            0.5714285714285714, rel=1e-14)

    def test_against_sum_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            rho = float(rng.uniform(0.0, 2.0))
            k = int(rng.integers(1, 101))
            got = _queue_empty_probability(rho, k)
            want = oracles.queue_empty_sum(rho, k)
            assert abs(got - want) <= 1e-12

    def test_overload_limit(self):
        assert _queue_empty_probability(math.inf, 50) == 0.0
        assert _queue_empty_probability(50.0, 500) == 0.0


class TestSolveFixedPoint:
    def test_zero_load(self, params):
        sol = solve_fixed_point(0.0, 10, params)
        assert sol.tau == 0.0
        assert sol.throughput == 0.0
        assert oracles.chain_at(sol.tau, 0.0, 10, params).b_idle == 1.0
        assert sol.q == 0.0
        assert sol.residual == 0.0
        # lam = 0 takes the shared Brent solve: g(0) = 0 ends it at the
        # bracket's lower end after its first two map calls.
        assert sol.iterations == 2

    def test_light_load_reference_point(self, params):
        # 50 pkt/s per station, 10 stations: the model sits on the linear
        # law at 4.1 Mbps.
        sol = solve_fixed_point(50e-6, 10, params)
        assert sol.throughput == pytest.approx(4.10, rel=0.05)
        assert sol.q < 0.1
        assert oracles.chain_at(sol.tau, 50e-6, 10, params).rho < 0.1

    def test_solution_identities(self, params):
        for lam_pkt_s in (0.0, 1e-306, 10.0, 50.0, 90.0, 200.0):
            for n in (5, 10, 20):
                lam = lam_pkt_s * 1e-6
                sol = solve_fixed_point(lam, n, params)
                chain = oracles.chain_at(sol.tau, lam, n, params)
                _, epsilon, _, alpha = _geom_sums(sol.p, params.w0, params.m)
                assert sol.tau == pytest.approx(epsilon * chain.b00, rel=1e-8)
                assert alpha * chain.b00 + chain.b_idle == pytest.approx(
                    1.0, abs=1e-12)
                # tau is subnormal at 1e-306 pkt/s, where Brent's absolute
                # stop _XTOL is the bound: the residual there was 2 to 11
                # steps of the float grid, 1.6e-13 to 8.8e-13, at these N.
                assert (sol.residual <= 1e-13
                        or sol.residual * sol.tau <= _XTOL), (lam_pkt_s, n)
                assert sol.p == pytest.approx(
                    1.0 - (1.0 - sol.tau) ** (n - 1), rel=1e-12)

    def test_average_slot_identity(self, params):
        for lam_pkt_s in (20.0, 80.0, 500.0):
            sol = solve_fixed_point(lam_pkt_s * 1e-6, 10, params)
            chain = oracles.chain_at(sol.tau, lam_pkt_s * 1e-6, 10, params)
            _, epsilon, theta, alpha = _geom_sums(sol.p, params.w0, params.m)
            direct = chain.b_idle * sol.t_i + (
                epsilon * chain.t_tx + theta * chain.t_bo) * chain.b00
            ratio = (epsilon * chain.t_tx + theta * chain.t_bo) / alpha
            assert sol.t_i == pytest.approx(direct, rel=1e-12)
            assert sol.t_i == pytest.approx(ratio, rel=1e-10)

    def test_infinite_rate_matches_saturated(self, params):
        inf = solve_fixed_point(math.inf, 10, params)
        assert inf.q == 1.0
        assert oracles.chain_at(inf.tau, math.inf, 10, params).p_i0 == 1.0

    def test_throughput_consistency(self, params, times):
        for lam_pkt_s in (5.0, 60.0, 150.0):
            sol = solve_fixed_point(lam_pkt_s * 1e-6, 10, params)
            s_of_tau = _s_of_tau(sol.tau, 10, times, params)
            assert s_of_tau == pytest.approx(sol.throughput, rel=1e-10)
            assert s_of_tau == sol.throughput

    def test_monotone_saturation_tail(self, params):
        sat = solve_fixed_point(math.inf, 10, params).throughput
        for factor in (2.0, 3.0, 5.0):
            lam = factor * 110.59e-6
            sol = solve_fixed_point(lam, 10, params)
            assert sol.throughput == pytest.approx(sat, rel=0.02)

    def test_single_root_and_bounded_calls(self, params, times):
        # The solver brackets a root of g(tau) = tau - map(tau); check on a
        # dense grid that there is exactly one sign change and that the
        # solved tau lies in the cell where it happens. At N = 50 and 100,
        # lambda_c lies in the three-root band (0.89-1.003 and 0.81-1.002
        # lambda_c), and the solve, split at tau_max, lands in the lowest
        # cell.
        grid = np.linspace(1e-15, 1.0 - 1e-12, 2000)
        for n in (1, 2, 10, 50, 100):
            lam_c = critical_lambda(n, params).lambda_c
            for lam in (0.01 * lam_c, lam_c, 5.0 * lam_c, math.inf):
                sol = solve_fixed_point(lam, n, params)
                assert sol.iterations <= 30
                g = np.array([t - _state_at(t, lam, n, times, params)
                              for t in grid])
                changes = np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:]))
                assert len(changes) == (
                    3 if n >= 50 and lam == lam_c else 1), (n, lam)
                i = changes[0]
                assert grid[i] <= sol.tau <= grid[i + 1], (n, lam)

    def test_same_solution_from_a_cold_or_a_warm_report(self, params,
                                                        cold_model):
        # A finite rate's solve splits at the network's cached maximum; a
        # cold cache computes it on the way and gives the same record. The
        # cache is emptied, or the second solve would read the first's
        # kept record. N = 80 at 0.975 lambda_c is in the three-root band.
        lam = (0.80 + 35 * 0.005) * critical_lambda(80, params).lambda_c
        warm = solve_fixed_point(lam, 80, params)
        cold_model()
        cold = solve_fixed_point(lam, 80, params)
        assert cold == warm
        assert cold.q == pytest.approx(0.072, abs=5e-4)

    # The tests that patch _state_at start from a cold model, so the
    # patched map is the one solved and none of its records outlives the
    # test. They solve at lam = inf or fill the network's entry first: a
    # finite rate's solve splits at its maximum, and a cold cache would
    # compute it through the patched map.
    def test_bracket_without_sign_change_raises(self, params, monkeypatch,
                                                cold_model):
        # A map that never crosses tau leaves nothing to bracket.
        critical_lambda(10, params)
        monkeypatch.setattr("dcfkit.model._state_at",
                            lambda tau, *args: tau + 1.0)
        with pytest.raises(ConvergenceError):
            solve_fixed_point(90e-6, 10, params)

    def test_nan_map_raises_naming_nan(self, params, monkeypatch,
                                       cold_model):
        critical_lambda(10, params)
        monkeypatch.setattr("dcfkit.model._state_at",
                            lambda tau, *args: math.nan)
        with pytest.raises(ConvergenceError, match="NaN") as info:
            solve_fixed_point(90e-6, 10, params)
        assert "change sign" not in str(info.value)

    def test_nan_inside_the_bracket_raises_naming_it(self, params,
                                                     monkeypatch, cold_model):
        # The saturated solve keeps the full bracket, whose ends change
        # sign, and Brent's first step lands in the middle.
        monkeypatch.setattr(
            "dcfkit.model._state_at",
            lambda tau, *args: 0.5 if tau in _BRACKET else math.nan)
        with pytest.raises(ConvergenceError, match=r"NaN at tau = 0\.5"):
            solve_fixed_point(math.inf, 10, params)

    def test_no_convergence_raises_with_last_iterate(self, params,
                                                     monkeypatch, cold_model):
        # A residual that is a flat cubic, (tau - 1e-9)^3 scaled up so the
        # subtraction in tau - map(tau) keeps it, takes Brent about 236
        # map calls: more than the 100 steps the solve allows. The record
        # at the last iterate comes from the real map. The second call
        # reads the kept record, runs no map and raises the same error
        # with a fresh record.
        critical_lambda(10, params)
        records = _network(10, params)[1]
        real = _state_at
        calls = []

        def flat_map(tau, *args):
            calls.append(tau)
            if len(args) == 4:
                return tau - 1e100 * (tau - 1e-9) ** 3
            return real(tau, *args)

        monkeypatch.setattr("dcfkit.model._state_at", flat_map)
        solutions, kept, maps = [], [], []
        for _ in range(2):
            calls.clear()
            with pytest.raises(ConvergenceError,
                               match="not reached in 102 map calls") as info:
                solve_fixed_point(90e-6, 10, params)
            sol = info.value.solution
            assert sol is not None
            assert sol.iterations == 102
            assert sol.residual > 0.0
            assert sol.tau == pytest.approx(1e-9, rel=0.1)
            solutions.append(sol)
            kept.append(records[90e-6])
            maps.append(len(calls))
        assert len(records) == 2  # the saturated record and this one
        assert kept[1] is kept[0]  # the second call stored no new record
        assert maps == [103, 0]  # 102 map calls and the record, then none
        assert solutions[1] == solutions[0]
        assert solutions[1] is not solutions[0]

    @pytest.mark.parametrize("n", [1, 10, 100])
    @pytest.mark.parametrize("lam_pkt_s, rel", [
        (1e-12, 1e-12), (1e-100, 1e-12), (1e-300, 1e-12), (1e-304, 1e-12),
        (1e-305, 1e-10), (1e-306, 1e-10), (1e-307, 1e-10)])
    def test_tiny_rates_follow_the_linear_law(self, params, n, lam_pkt_s,
                                              rel):
        # tau falls far below 1e-15 here; the bracket starts at 0 and the
        # absolute tolerance is a subnormal, so the root keeps its digits
        # while tau is normal. tau is subnormal below about 3.6e-304
        # pkt/s, and over N from 1 to 100 the last Brent steps leave up to
        # 1.0e-12 of the law at 1e-305 pkt/s and 9.1e-11 at 1e-307.
        lam = lam_pkt_s * 1e-6
        sol = solve_fixed_point(lam, n, params)
        assert sol.tau > 0.0
        linear = linear_throughput(lam, n, params)
        assert abs(sol.throughput - linear) <= rel * linear

    def test_root_below_xtol_reads_zero_in_a_normalised_chain(self, params):
        # At 1e-317 pkt/s the root lies below _XTOL, so Brent stops at 0;
        # the chain there is all idle and its residual is the absolute one.
        sol = solve_fixed_point(1e-317 * 1e-6, 10, params)
        chain = oracles.chain_at(sol.tau, 1e-317 * 1e-6, 10, params)
        alpha = _geom_sums(sol.p, params.w0, params.m)[3]
        assert (sol.tau, sol.throughput) == (0.0, 0.0)
        assert chain.b_idle == 1.0
        assert alpha * chain.b00 + chain.b_idle == 1.0
        assert sol.residual <= _XTOL

    def test_underflowing_idle_exit_probability_solves(self, params):
        # Durations so short that lam * t_i underflows and p_i0 is 0 at a
        # rate far above the float floor: the chain stays normalised.
        tiny = dataclasses.replace(
            params, data_rate=1e300, basic_rate=1e300, sifs=1e-300,
            eifs=1e-300, slot_sigma=1e-300, prop_delta=0.0)
        sol = solve_fixed_point(1e-30, 10, tiny)
        chain = oracles.chain_at(sol.tau, 1e-30, 10, tiny)
        assert chain.p_i0 == 0.0
        assert chain.b_idle == 1.0
        assert (sol.tau, sol.throughput) == (0.0, 0.0)

    def test_domain(self, params):
        for lam, message in ((-1e-6, ">= 0, got -1e-06"),
                             (math.nan, ">= 0, got nan"),
                             (True, "a number, got True"),
                             ("1e-5", "a number, got '1e-5'"),
                             (None, "a number, got None")):
            with pytest.raises(ParameterError,
                               match=f"^lam must be {message}$"):
                solve_fixed_point(lam, 10, params)
        with pytest.raises(ParameterError):
            solve_fixed_point(1e-5, 0, params)

    @pytest.mark.parametrize("lam", [0.0, 1e-5, math.inf])
    @pytest.mark.parametrize("n", [10 ** 300 + 1, 10 ** 400])
    def test_refuses_networks_past_the_float_limit(self, params, lam, n):
        # Past 10**300 stations lambda_c, and so the split, nears the
        # bottom of the float range; 10**400 is past float(n) itself.
        with pytest.raises(ParameterError,
                           match=r"<= 10\*\*300 .* bottom of the float range"):
            solve_fixed_point(lam, n, params)

    def test_a_float32_rate_is_solved_as_its_float(self, params, cold_model):
        # In float32 the map's products overflowed near tau = 1 and no root
        # was reached in 102 map calls; as a float, 0.5 pkt/us solves in 2.
        sol = solve_fixed_point(np.float32(0.5), 10, params)
        assert sol == solve_fixed_point(0.5, 10, params)
        assert sol.iterations == 2

    def test_a_float32_rate_gives_a_record_of_floats(self, params,
                                                     cold_model):
        # NumPy 2 keeps float32 through every product with a Python float,
        # so the whole chain ran in single precision.
        lam = np.float32(1e-4)
        sol = solve_fixed_point(lam, 10, params)
        assert sol == solve_fixed_point(float(lam), 10, params)
        for field in dataclasses.fields(sol):
            value = getattr(sol, field.name)
            assert type(value) is (int if field.name == "iterations"
                                   else float), field.name

    @pytest.mark.parametrize("lam", [
        pytest.param(10 ** 400, id="int-1e400"),
        pytest.param(-10 ** 400, id="negative-int-1e400"),
        pytest.param(Fraction(10 ** 400), id="fraction-1e400"),
        pytest.param(np.longdouble(10) ** 400, id="longdouble-1e400",
                     marks=pytest.mark.skipif(
                         not np.isfinite(np.longdouble(10) ** 400),
                         reason="long double is a double here"))])
    def test_rates_past_the_float_range_are_refused(self, params, lam):
        # An int past the range made float() raise a bare OverflowError.
        with pytest.raises(ParameterError,
                           match="^lam is too large for a float$"):
            solve_fixed_point(lam, 10, params)


class TestRootMemo:
    """solve_fixed_point keeps each rate's finished record in its network's
    cached entry and builds a fresh record from it on every call. A miss
    stores a new kept record under the rate; a hit leaves the stored one
    in place and runs no map."""

    def test_the_bound_holds_an_auto_sweep_per_cached_network(self):
        # 25 grid rates and the saturated rate; 128 networks of 32 records
        # each are 4096 records in all.
        assert _ROOTS_PER_NETWORK >= cli._AUTO_GRID_POINTS + 1
        assert _network.cache_parameters()["maxsize"] == 128

    @pytest.mark.parametrize("first, second", [
        (1, 1.0), (np.float64(2e-5), 2e-5), (np.float32(0.5), 0.5),
        (0.5, np.float32(0.5))])
    def test_equal_rates_of_other_types_share_a_root(self, params,
                                                     cold_model, first,
                                                     second):
        records = _network(10, params)[1]
        want = solve_fixed_point(first, 10, params)
        assert list(records) == [math.inf, float(first)]  # one miss
        kept = records[float(first)]
        got = solve_fixed_point(second, 10, params)
        assert list(records) == [math.inf, float(first)]  # then a hit
        assert records[float(first)] is kept
        assert got == want and got is not want

    def test_a_hit_runs_no_map_and_shares_no_record(self, params,
                                                    monkeypatch, cold_model):
        # The first solve evaluates the map; the second builds its record
        # from the kept values alone, equal bit for bit but a new object,
        # and a caller's write to a returned record reaches no later one.
        lam = 90e-6
        calls = []

        def counted(*args):
            calls.append(args[0])
            return _state_at(*args)

        monkeypatch.setattr("dcfkit.model._state_at", counted)
        first = solve_fixed_point(lam, 10, params)
        assert calls
        calls.clear()
        second = solve_fixed_point(lam, 10, params)
        assert calls == []
        assert oracles.record_bits(second) == oracles.record_bits(first)
        assert second is not first
        second.tau = -1.0
        third = solve_fixed_point(lam, 10, params)
        assert calls == []
        assert oracles.record_bits(third) == oracles.record_bits(first)

    def test_convergence_errors_are_not_cached(self, params, monkeypatch,
                                               cold_model):
        # A NaN map raises inside the root search on every call, and the
        # map runs again each time.
        records = _network(10, params)[1]
        calls = []

        def nan_map(tau, *args):
            calls.append(tau)
            return math.nan

        monkeypatch.setattr("dcfkit.model._state_at", nan_map)
        for _ in range(2):
            with pytest.raises(ConvergenceError, match="NaN"):
                solve_fixed_point(90e-6, 10, params)
        assert calls and calls[:len(calls) // 2] == calls[len(calls) // 2:]
        assert list(records) == [math.inf]  # the saturated record only

    def test_a_full_network_keeps_its_first_roots(self, params, cold_model):
        # 40 distinct rates, twice: at 32 records a miss drops the newest,
        # so the saturated record and the first 30 rates stay, the last
        # slot holds the latest rate, and every later rate is solved again.
        # Each record is its first solve's, bit for bit.
        lam_c = critical_lambda(10, params).lambda_c
        rates = [lam_c * i / 20 for i in range(1, 41)]
        records = _network(10, params)[1]
        first = [oracles.record_bits(solve_fixed_point(lam, 10, params))
                 for lam in rates]
        assert len(records) == _ROOTS_PER_NETWORK
        assert list(records) == [math.inf, *rates[:30], rates[-1]]
        kept = dict(records)
        again = [oracles.record_bits(solve_fixed_point(lam, 10, params))
                 for lam in rates]
        assert again == first
        assert len(records) == _ROOTS_PER_NETWORK
        assert all(records[lam] is kept[lam]
                   for lam in [math.inf, *rates[:30]])

    def test_a_cold_network_derives_its_times_once(self, params,
                                                   monkeypatch, cold_model):
        # The entry holds the network's channel times, so its search, its
        # 25 auto-grid solves and its saturated solve derive them once.
        calls = []

        def counted(p):
            calls.append(p)
            return derive_times(p)

        monkeypatch.setattr("dcfkit.model.derive_times", counted)
        report = critical_lambda(10, params)
        for lam in cli._auto_grid(report):
            solve_fixed_point(lam * cli._PKT_S_TO_PKT_US, 10, params)
        solve_fixed_point(math.inf, 10, params)
        assert calls == [params]

    def test_a_finite_rate_needs_no_critical_rate(self, params, cold_model):
        # 10**9 stations of 10**300 payload bits: the slope N * E[PL] that
        # lambda_c divides by overflows, so critical_lambda refuses the
        # network, but a solve splits at the maximum alone. 1e-5 pkt/us
        # lies far past lambda_c there, so its root is the saturated one,
        # bit for bit.
        big = dataclasses.replace(params, payload_bits=10 ** 300)
        n = 10 ** 9
        with pytest.raises(ParameterError, match="overflows the float"):
            critical_lambda(n, big)
        sat = solve_fixed_point(math.inf, n, big)
        sol = solve_fixed_point(1e-5, n, big)
        assert sol.tau.hex() == sat.tau.hex()
        assert sol.q == 1.0


class TestKnee:
    # dot11g-54 near lambda_c, where the residual can have three roots: the
    # low one (short queues) and the high one (full queues) are both
    # stable, and the solve, split at tau_max, keeps the low one.

    @pytest.mark.parametrize("n, share, s_sim", [
        (10, 0.9, 8.140), (10, 1.0, 9.066), (10, 1.2, 9.074),
        (50, 0.95, 8.012), (50, 1.05, 7.250), (50, 1.2, 7.251)])
    def test_split_solve_meets_the_simulator(self, params, n, share, s_sim):
        # s_sim is the simulator's mean from empty queues: 2 replications
        # of 60 s after a 10-s warm-up, seed 31.
        lam = share * critical_lambda(n, params).lambda_c
        sol = solve_fixed_point(lam, n, params)
        assert sol.throughput == pytest.approx(s_sim, rel=0.005)

    def test_split_solve_keeps_the_lowest_root_in_the_band(self, params,
                                                           times):
        # 78 rates from 0.80 to 1.10 lambda_c; g is scanned on 600 cells
        # of the capped bracket. 26 of the rates have three roots.
        seen = 0
        for n in (10, 25, 40, 50, 80, 100):
            report = critical_lambda(n, params)
            cap = report.tau_sat * _SAT_MARGIN
            grid = np.linspace(0.0, cap, 601)
            for k in range(13):
                lam = (0.80 + 0.025 * k) * report.lambda_c
                g = np.array([t - _state_at(float(t), lam, n, times, params)
                              for t in grid])
                changes = np.flatnonzero(np.sign(g[:-1]) != np.sign(g[1:]))
                assert len(changes) in (1, 3), (n, k)
                seen += len(changes) == 3
                tau = solve_fixed_point(lam, n, params).tau
                i = changes[0]
                assert grid[i] <= tau <= grid[i + 1], (n, k)
        assert seen >= 20

    @pytest.mark.parametrize("n, share, full_s, full_q, split_s, split_q", [
        (80, 0.9750000000000001, 6.444, 1.000, 8.191, 0.072),
        (25, 1.0, 8.169, 0.994, 8.576, 0.331)])
    def test_full_bracket_may_keep_the_high_root(self, params, times, n,
                                                 share, full_s, full_q,
                                                 split_s, split_q):
        # Why a finite rate's bracket is split: on the full bracket, in the
        # band, Brent's path may end at the high root. Which root it keeps
        # turns on the last bit of the rate: N = 80 is pinned at
        # 0.80 + 35 * 0.005 in floats, and at 0.975 lambda_c it keeps the
        # low one. Over 0.80-1.10 lambda_c in steps of 0.005 for
        # N = 2..100, 150 and 250, the full bracket kept another root than
        # the split at 5 of 6161 rates. The solve gives the split's root.
        lam = share * critical_lambda(n, params).lambda_c
        tau, calls, _ = _brentq(
            lambda t: t - _state_at(t, lam, n, times, params), *_BRACKET)
        full = FixedPointSolution(*_state_at(tau, lam, n, times, params,
                                             calls))
        sol = solve_fixed_point(lam, n, params)
        assert (full.throughput, full.q) == pytest.approx((full_s, full_q),
                                                          abs=5e-4)
        assert (sol.throughput, sol.q) == pytest.approx(
            (split_s, split_q), abs=5e-4)


class TestBrentAgainstScipy:
    # _brentq transliterates scipy's brentq.c, so roots and call counts
    # must match scipy's bit for bit on the model's own residual.
    @pytest.mark.parametrize("n", [1, 2, 10, 50, 100])
    def test_same_root_and_calls(self, params, times, n):
        report = critical_lambda(n, params)
        lam_c = report.lambda_c
        cap = report.tau_sat * _SAT_MARGIN
        for lam in (0.01 * lam_c, 0.3 * lam_c, lam_c, 5.0 * lam_c,
                    math.inf):
            def g(t):
                return t - _state_at(t, lam, n, times, params)

            want, info = optimize.brentq(g, *_BRACKET, xtol=_XTOL,
                                         rtol=_RTOL, full_output=True)
            root, calls, converged = _brentq(g, *_BRACKET)
            assert (root, calls, converged) == (
                want, info.function_calls, info.converged), (n, lam)
            # The solve: the full bracket at lam = inf; a finite rate's
            # bracket split at tau_max, where the one evaluation of g is
            # Brent's given end value.
            if lam != math.inf:
                lo, hi, g_lo, g_hi = oracles.split_bracket(
                    g, _BRACKET[0], cap, report.tau_max)
                want, info = optimize.brentq(g, lo, hi, xtol=_XTOL,
                                             rtol=_RTOL, full_output=True)
                assert _brentq(g, lo, hi, g_lo, g_hi) == (
                    want, info.function_calls, info.converged), (n, lam)
            sol = solve_fixed_point(lam, n, params)
            assert (sol.tau, sol.iterations) == (
                want, info.function_calls), (n, lam)

    @pytest.mark.parametrize("f", [
        pytest.param(lambda x: x - 1.0, id="root-at-upper-end"),
        pytest.param(lambda x: x, id="root-at-lower-end"),
    ])
    def test_root_at_an_end_of_the_bracket(self, f):
        # Both ends are evaluated first; a zero there is the root, found
        # after those two calls.
        want, info = optimize.brentq(f, 0.0, 1.0, xtol=_XTOL, rtol=_RTOL,
                                     full_output=True)
        got = _brentq(f, 0.0, 1.0)
        assert got == (want, info.function_calls, info.converged)
        assert got[1:] == (2, True)
        # A given end value counts as a call, and f is not called there.
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        assert _brentq(counted, 0.0, 1.0, fb=f(1.0)) == got
        assert _brentq(counted, 0.0, 1.0, fa=f(0.0)) == got
        assert calls == [0.0, 1.0]

    @pytest.mark.parametrize("w0, m", [(2 ** 1000, 22), (2 ** 1000, 1),
                                       (2 ** 500, 522)])
    def test_step_below_the_float_range(self, params, w0, m):
        # tau_sat is near 1e-301 (w0 2^1000) or 6e-151 (w0 2^500). Near a
        # root this far down, g and the bracket are both tiny, so scipy's
        # interpolation product -fcur * (xcur - xpre) underflows to a step
        # of 0.0 and its minimum steps run out of iterations; _brentq
        # divides first there.
        big = dataclasses.replace(params, w0=w0, m=m)
        times = derive_times(big)
        for n in (1, 10, 1000):
            report = critical_lambda(n, big)
            for lam in (5e-324, 1e-300, 1e-5, 1.0, math.inf):
                sol = solve_fixed_point(lam, n, big)
                assert sol.iterations <= 3, (n, lam)
                if lam >= 1e-5:
                    assert (sol.tau, sol.q) == (report.tau_sat, 1.0)

        def g(t):
            return t - _state_at(t, 1e-300, 1000, times, big)

        cap = report.tau_sat * _SAT_MARGIN
        _, info = optimize.brentq(g, 0.0, cap, xtol=_XTOL, rtol=_RTOL,
                                  full_output=True, disp=False)
        assert not info.converged
        assert _brentq(g, 0.0, cap)[1:] == (3, True)


class TestSolveSaturated:
    def test_single_station_closed_form(self, params):
        sol = solve_fixed_point(math.inf, 1, params)
        assert sol.p == 0.0
        assert sol.tau == pytest.approx(2.0 / 33.0, rel=1e-12)
        assert sol.throughput == pytest.approx(
            oracles.single_station_saturated_throughput(), rel=1e-12)
        assert sol.throughput == pytest.approx(8.0078125, rel=1e-12)

    def test_reference_network(self, params):
        sol = solve_fixed_point(math.inf, 10, params)
        assert sol.tau == pytest.approx(0.0375542, abs=1e-6)
        assert sol.q == 1.0
        assert oracles.chain_at(sol.tau, math.inf, 10, params).b_idle == 0.0
        _, epsilon, _, alpha = _geom_sums(sol.p, params.w0, params.m)
        assert sol.tau == pytest.approx(epsilon / alpha, rel=1e-9)

    def test_small_chain_against_stationary_distribution(self, params):
        small = small_chain_params()
        sol = solve_fixed_point(math.inf, 3, small)
        pi = oracles.chain_stationary(sol.p, small.w0, small.m)
        alpha = _geom_sums(sol.p, small.w0, small.m)[3]
        assert pi[(0, 0)] == pytest.approx(1.0 / alpha, abs=1e-8)
        tau_chain = sum(pi[(i, 0)] for i in range(small.m + 1))
        assert tau_chain == pytest.approx(sol.tau, abs=1e-8)


class TestStageOccupancy:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
    def test_geometric_across_stages(self, p):
        # With w0 = 4 and m = 2 the chain is small enough to enumerate; the
        # stationary stage-heads must decay geometrically in p.
        small = small_chain_params()
        pi = oracles.chain_stationary(p, small.w0, small.m)
        b00 = 1.0 / _geom_sums(p, small.w0, small.m)[3]
        for i in range(small.m + 1):
            assert abs(pi[(i, 0)] - p ** i * b00) <= 1e-8

    def test_total_mass(self):
        small = small_chain_params()
        pi = oracles.chain_stationary(0.3, small.w0, small.m)
        assert sum(pi.values()) == pytest.approx(1.0, abs=1e-12)


class TestThroughputTauForm:
    def test_vanishes_at_edges(self, params, times):
        assert _s_of_tau(0.0, 10, times, params) == 0.0
        assert _s_of_tau(1.0, 10, times, params) == 0.0

    @pytest.mark.parametrize("n", [1, 2, 50, 10 ** 300])
    def test_every_other_station_sends_at_tau_one(self, params, times, n):
        # At tau = 1 the others' silence is exp(-inf) = 0, and for a lone
        # station exp(-0.0) = 1: no collision, p is +0.0 rather than the
        # -0.0 of -expm1(0.0), and S is one payload per no-contention slot.
        p, *_ = _slot_kernel(1.0, n, times, params)
        s = _s_of_tau(1.0, n, times, params)
        if n == 1:
            assert p == 0.0 and math.copysign(1.0, p) == 1.0
            t_i = (oracles.T_S_US + 15.5 * params.slot_sigma) / 16.5
            assert s == pytest.approx(oracles.PAYLOAD_BITS / t_i, rel=1e-12)
        else:
            assert (p, s) == (1.0, 0.0)

    def test_numerator_identity(self, params):
        # N tau (1-tau)^(N-1) equals P_t * P_s by construction; the tau form
        # and the probability form may only differ through rounding.
        rng = np.random.default_rng(11)
        for _ in range(200):
            tau = float(rng.uniform(1e-6, 1.0 - 1e-6))
            n = int(rng.integers(1, 51))
            p_t = 1.0 - (1.0 - tau) ** n
            p_s = n * tau * (1.0 - tau) ** (n - 1) / p_t
            direct = n * tau * (1.0 - tau) ** (n - 1)
            assert p_t * p_s == pytest.approx(direct, rel=1e-12)

    def test_small_tau_limits(self, params, times):
        tau = 1e-6
        n = 10
        p, t_tx, t_bo, epsilon, alpha, *_ = _slot_kernel(tau, n, times,
                                                         params)
        theta = _geom_sums(p, params.w0, params.m)[2]
        assert abs(epsilon - 1.0) < 1e-4
        assert abs(theta - 15.5) < 1e-3
        assert abs(alpha - 16.5) < 1e-3
        assert abs(t_tx - times.t_s) / times.t_s < 1e-4
        assert abs(t_bo - params.slot_sigma) / params.slot_sigma < 1e-2
