import dataclasses
import math

import numpy as np
import pytest

import oracles
from dcfkit import (ConvergenceError, ParameterError, SolverConfig,
                    access_and_service_time, collision_probability,
                    geom_quantities, get_profile, idle_slot_time,
                    queue_empty_probability, slot_times_at, solve_fixed_point,
                    solve_saturated, throughput, throughput_tau_form)


def small_chain_params():
    base = get_profile("dot11g-54")
    return dataclasses.replace(base, w0=4, m=2, w_max=16)


class TestSlotTimes:
    def test_no_contention(self, params, times):
        t_tx, t_bo = slot_times_at(0.0, 10, times, params)
        assert t_tx == times.t_s
        assert t_bo == params.slot_sigma

    def test_certain_collision(self, params, times):
        t_tx, t_bo = slot_times_at(1.0, 5, times, params)
        assert t_tx == times.t_c
        assert t_bo == times.t_c

    def test_mix_from_collision_probability(self, params, times):
        p = collision_probability(0.1, 10)
        t_tx, t_bo = slot_times_at(0.1, 10, times, params)
        assert t_tx == pytest.approx((1 - p) * 714.0 + p * 713.0, rel=1e-15)
        assert t_tx == pytest.approx(713.387420489, abs=1e-9)
        assert t_bo == pytest.approx((1 - p) * 20.0 + p * t_tx, rel=1e-15)


class TestAccessAndService:
    def test_collision_free_window(self, params, times):
        t_a, t_srv = access_and_service_time(0.0, params.slot_sigma,
                                             times.t_s, params)
        assert t_a == 16.0 * params.slot_sigma
        assert t_srv == 16.0 * params.slot_sigma + times.t_s
        assert t_srv == 1034.0

    def test_against_stage_sum(self, params):
        for p in (0.1, 0.25, 0.6):
            t_a, _ = access_and_service_time(p, 25.0, 700.0, params)
            want = oracles.access_delay_terms(p, params.w0, params.m, 25.0)
            assert t_a == pytest.approx(want, rel=1e-12)

    def test_frozen_quarter(self, params):
        t_a, _ = access_and_service_time(0.25, 25.0, 700.0, params)
        assert t_a == pytest.approx(590.769230769231, abs=1e-9)

    def test_domain(self, params):
        with pytest.raises(ValueError):
            access_and_service_time(1.5, 25.0, 700.0, params)


class TestIdleSlotTime:
    def test_no_contention(self, params, times):
        value = idle_slot_time(0.0, times.t_s, params.slot_sigma, params)
        want = (714.0 + 15.5 * 20.0) / 16.5
        assert value == pytest.approx(want, rel=1e-15)
        assert value == pytest.approx(62.0606060606, abs=1e-9)

    def test_quarter_against_summed_weights(self, params):
        eps = oracles.geom_epsilon(0.25, 5)
        theta = oracles.geom_theta(0.25, 32, 5)
        alpha = oracles.geom_alpha(0.25, 32, 5)
        want = (eps * 713.9 + theta * 25.0) / alpha
        value = idle_slot_time(0.25, 713.9, 25.0, params)
        assert value == pytest.approx(want, rel=1e-12)
        assert value == pytest.approx(53.548613324832644, rel=1e-12)

    def test_domain(self, params):
        with pytest.raises(ValueError):
            idle_slot_time(-0.1, 700.0, 25.0, params)


class TestQueueEmptyProbability:
    def test_empty_system(self):
        assert queue_empty_probability(0.0, 50) == 1.0

    def test_balanced_load_limit(self):
        assert queue_empty_probability(1.0, 50) == pytest.approx(1.0 / 51,
                                                                 rel=1e-12)
        near = queue_empty_probability(1.0 - 1e-12, 50)
        assert near == pytest.approx(1.0 / 51, rel=1e-6)

    def test_small_example(self):
        assert queue_empty_probability(0.5, 2) == pytest.approx(
            oracles.queue_empty_sum(0.5, 2), rel=1e-15)
        assert queue_empty_probability(0.5, 2) == pytest.approx(
            0.5714285714285714, rel=1e-14)

    def test_against_sum_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            rho = float(rng.uniform(0.0, 2.0))
            k = int(rng.integers(1, 101))
            got = queue_empty_probability(rho, k)
            want = oracles.queue_empty_sum(rho, k)
            assert abs(got - want) <= 1e-12

    def test_overload_limit(self):
        assert queue_empty_probability(math.inf, 50) == 0.0
        assert queue_empty_probability(50.0, 500) == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            queue_empty_probability(-0.5, 10)
        with pytest.raises(ParameterError):
            queue_empty_probability(0.5, 0)


class TestSolveFixedPoint:
    def test_zero_load(self, params):
        sol = solve_fixed_point(0.0, 10, params)
        assert sol.tau == 0.0
        assert sol.throughput == 0.0
        assert sol.b_idle == 1.0
        assert sol.q == 0.0
        assert sol.residual == 0.0
        assert sol.converged

    def test_light_load_reference_point(self, params):
        # 50 pkt/s per station, 10 stations: the model sits on the linear
        # law at 4.1 Mbps.
        sol = solve_fixed_point(50e-6, 10, params)
        assert sol.throughput == pytest.approx(4.10, rel=0.05)
        assert sol.q < 0.1
        assert sol.rho < 0.1

    def test_solution_identities(self, params):
        for lam_pkt_s in (10.0, 50.0, 90.0, 200.0):
            for n in (5, 10, 20):
                sol = solve_fixed_point(lam_pkt_s * 1e-6, n, params)
                g = geom_quantities(sol.p, params.w0, params.m)
                assert sol.tau == pytest.approx(g.epsilon * sol.b00, rel=1e-8)
                assert g.alpha * sol.b00 + sol.b_idle == pytest.approx(
                    1.0, abs=1e-12)
                assert sol.residual <= 1e-8
                assert sol.p == pytest.approx(
                    collision_probability(sol.tau, n), rel=1e-12)

    def test_average_slot_identity(self, params):
        for lam_pkt_s in (20.0, 80.0, 500.0):
            sol = solve_fixed_point(lam_pkt_s * 1e-6, 10, params)
            g = geom_quantities(sol.p, params.w0, params.m)
            direct = sol.b_idle * sol.t_i + (g.epsilon * sol.t_tx
                                             + g.theta * sol.t_bo) * sol.b00
            ratio = (g.epsilon * sol.t_tx + g.theta * sol.t_bo) / g.alpha
            assert sol.t_av == pytest.approx(direct, rel=1e-12)
            assert sol.t_av == pytest.approx(ratio, rel=1e-10)

    def test_infinite_rate_matches_saturated(self, params):
        sat = solve_saturated(10, params)
        inf = solve_fixed_point(math.inf, 10, params)
        assert inf.tau == pytest.approx(sat.tau, rel=1e-9)
        assert inf.throughput == pytest.approx(sat.throughput, rel=1e-9)
        assert inf.q == 1.0
        assert inf.p_i0 == 1.0
        for n in range(1, 51):
            assert solve_saturated(n, params) == solve_fixed_point(
                math.inf, n, params)

    def test_throughput_consistency(self, params):
        for lam_pkt_s in (5.0, 60.0, 150.0):
            sol = solve_fixed_point(lam_pkt_s * 1e-6, 10, params)
            assert throughput(sol, 10, params) == sol.throughput
            assert throughput_tau_form(sol.tau, 10, params) == pytest.approx(
                sol.throughput, rel=1e-10)
            assert throughput_tau_form(sol.tau, 10, params) == sol.throughput
            assert sol.t_av == sol.t_i

    def test_monotone_saturation_tail(self, params):
        sat = solve_saturated(10, params).throughput
        for factor in (2.0, 3.0, 5.0):
            lam = factor * 110.59e-6
            sol = solve_fixed_point(lam, 10, params)
            assert sol.throughput == pytest.approx(sat, rel=0.02)

    def test_non_convergence_carries_iterate(self, params):
        cfg = SolverConfig(tolerance=1e-10, max_iterations=1, damping=1.0,
                           fallback_bisection=False)
        with pytest.raises(ConvergenceError) as err:
            solve_fixed_point(90e-6, 10, params, cfg)
        assert err.value.solution is not None
        assert not err.value.solution.converged
        assert err.value.residual > 0

    def test_bisection_fallback_agrees(self, params):
        loose = SolverConfig(tolerance=1e-10, max_iterations=3, damping=1.0,
                             fallback_bisection=True)
        direct = solve_fixed_point(90e-6, 10, params)
        fallback = solve_fixed_point(90e-6, 10, params, loose)
        assert fallback.tau == pytest.approx(direct.tau, rel=1e-5)

    def test_domain(self, params):
        with pytest.raises(ValueError):
            solve_fixed_point(-1e-6, 10, params)
        with pytest.raises(ParameterError):
            solve_fixed_point(1e-5, 0, params)


class TestSolveSaturated:
    def test_single_station_closed_form(self, params):
        sol = solve_saturated(1, params)
        assert sol.p == 0.0
        assert sol.tau == pytest.approx(2.0 / 33.0, rel=1e-12)
        assert sol.throughput == pytest.approx(
            oracles.single_station_saturated_throughput(), rel=1e-12)
        assert sol.throughput == pytest.approx(8.0078125, rel=1e-12)

    def test_reference_network(self, params):
        sol = solve_saturated(10, params)
        assert sol.tau == pytest.approx(0.0375542, abs=1e-6)
        assert sol.q == 1.0
        assert sol.b_idle == 0.0
        g = geom_quantities(sol.p, params.w0, params.m)
        assert sol.tau == pytest.approx(g.epsilon / g.alpha, rel=1e-9)

    def test_small_chain_against_stationary_distribution(self, params):
        small = small_chain_params()
        sol = solve_saturated(3, small)
        pi = oracles.chain_stationary(sol.p, small.w0, small.m)
        g = geom_quantities(sol.p, small.w0, small.m)
        assert pi[(0, 0)] == pytest.approx(1.0 / g.alpha, abs=1e-8)
        tau_chain = sum(pi[(i, 0)] for i in range(small.m + 1))
        assert tau_chain == pytest.approx(sol.tau, abs=1e-8)


class TestStageOccupancy:
    @pytest.mark.parametrize("p", [0.1, 0.3, 0.6])
    def test_geometric_across_stages(self, p):
        # With w0 = 4 and m = 2 the chain is small enough to enumerate; the
        # stationary stage-heads must decay geometrically in p.
        small = small_chain_params()
        pi = oracles.chain_stationary(p, small.w0, small.m)
        g = geom_quantities(p, small.w0, small.m)
        b00 = 1.0 / g.alpha
        for i in range(small.m + 1):
            assert abs(pi[(i, 0)] - p ** i * b00) <= 1e-8

    def test_total_mass(self):
        small = small_chain_params()
        pi = oracles.chain_stationary(0.3, small.w0, small.m)
        assert sum(pi.values()) == pytest.approx(1.0, abs=1e-12)


class TestThroughputTauForm:
    def test_vanishes_at_edges(self, params):
        assert throughput_tau_form(0.0, 10, params) == 0.0
        assert throughput_tau_form(1.0, 10, params) == 0.0

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
        p = collision_probability(tau, n)
        g = geom_quantities(p, params.w0, params.m)
        assert abs(g.epsilon - 1.0) < 1e-4
        assert abs(g.theta - 15.5) < 1e-3
        assert abs(g.alpha - 16.5) < 1e-3
        t_tx, t_bo = slot_times_at(tau, n, times, params)
        assert abs(t_tx - times.t_s) / times.t_s < 1e-4
        assert abs(t_bo - params.slot_sigma) / params.slot_sigma < 1e-2

    def test_domain(self, params):
        with pytest.raises(ValueError):
            throughput_tau_form(1.0001, 10, params)
