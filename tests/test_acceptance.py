"""Acceptance suite: one test per shipped guarantee, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines;
each prints CRITERION <n>: PASS/FAIL with the measured numbers either way.
"""
import math
import time

import numpy as np
import pytest

import oracles
from dcfkit import (SimConfig, critical_lambda, derive_times, get_profile,
                    solve_fixed_point)
from dcfkit.cli import main
from dcfkit.model import _geom_sums, _queue_empty_probability, _slot_kernel
from dcfkit.sim import run

PKT_S = 1e-6  # packets/second expressed in packets/microsecond


@pytest.fixture(scope="module")
def p():
    return get_profile("dot11g-54")


@pytest.fixture(scope="module")
def reports(p):
    return {n: critical_lambda(n, p) for n in (5, 10, 20, 30)}


def verdict(num, name, ok, detail):
    print(f"\nCRITERION {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_reference_table(p):
    t0 = time.perf_counter()
    want = {10: (9.118, 111.2), 20: (8.73, 53.235), 30: (8.608, 34.99)}
    rows = []
    ok = True
    for n, (s_ref, lam_ref) in want.items():
        report = critical_lambda(n, p)
        lam = report.lambda_c / PKT_S
        err_s = abs(report.s_max - s_ref) / s_ref
        err_l = abs(lam - lam_ref) / lam_ref
        ok &= err_s <= 0.05 and err_l <= 0.05
        rows.append(f"N={n}: S_m={report.s_max:.4f} ({err_s:.2%}) "
                    f"lam_c={lam:.2f} ({err_l:.2%})")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    verdict(1, "reference table within 5%", ok,
            "; ".join(rows) + f"; {elapsed:.2f}s")


def test_criterion_02_critical_rate_identity(p):
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(1, 51):
        report = critical_lambda(n, p)
        lhs = report.lambda_c * n * p.payload_bits
        worst = max(worst, abs(lhs - report.s_max) / report.s_max)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 10.0
    verdict(2, "lam_c * N * E[PL] = S_m for N=1..50", ok,
            f"worst rel dev {worst:.2e}; {elapsed:.2f}s")


def test_criterion_03_linear_regime(p, reports):
    t0 = time.perf_counter()
    rows = []
    ok = True
    for n in (10, 20, 30):
        lam_c = reports[n].lambda_c
        for frac, bound in ((0.1, 0.05), (0.25, 0.05), (0.5, 0.05),
                            (0.8, 0.10)):
            lam = frac * lam_c
            s_model = solve_fixed_point(lam, n, p).throughput
            s_line = n * p.payload_bits * lam
            err = abs(s_model - s_line) / s_line
            ok &= err <= bound
            rows.append(f"N={n} {frac}lc:{err:.2%}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30.0
    verdict(3, "linear law below lam_c", ok,
            " ".join(rows) + f"; {elapsed:.2f}s")


def test_criterion_04_saturation_tail(p, reports):
    rows = []
    ok = True
    for n in (10, 20, 30):
        sat = solve_fixed_point(math.inf, n, p).throughput
        for factor in (2.0, 3.0, 5.0):
            lam = factor * reports[n].lambda_c
            s = solve_fixed_point(lam, n, p).throughput
            err = abs(s - sat) / sat
            ok &= err <= 0.02
            rows.append(f"N={n} {factor:g}lc:{err:.3%}")
    verdict(4, "saturated tail within 2%", ok, " ".join(rows))


def test_criterion_05_algebraic_identities(p):
    rng = np.random.default_rng(20260819)
    worst_geom = 0.0
    for prob in rng.uniform(0.0, 1.0, size=10_000):
        _, epsilon, theta, alpha = _geom_sums(float(prob), p.w0, p.m)
        worst_geom = max(worst_geom, abs(alpha - theta - epsilon) / epsilon)

    worst_tav = 0.0
    for lam_pkt_s in (10.0, 40.0, 80.0, 110.0, 200.0, 500.0):
        for n in (5, 10, 20, 30):
            sol = solve_fixed_point(lam_pkt_s * PKT_S, n, p)
            chain = oracles.chain_at(sol.tau, lam_pkt_s * PKT_S, n, p)
            _, epsilon, theta, _ = _geom_sums(sol.p, p.w0, p.m)
            direct = chain.b_idle * sol.t_i + (
                epsilon * chain.t_tx + theta * chain.t_bo) * chain.b00
            worst_tav = max(worst_tav, abs(sol.t_i - direct)
                            / max(direct, 1e-300))

    worst_num = 0.0
    for tau in rng.uniform(1e-6, 1.0 - 1e-6, size=2_000):
        n = int(rng.integers(1, 51))
        p_t = 1.0 - (1.0 - tau) ** n
        p_s = n * tau * (1.0 - tau) ** (n - 1) / p_t
        direct = n * tau * (1.0 - tau) ** (n - 1)
        worst_num = max(worst_num, abs(p_t * p_s - direct) / direct)

    ok = worst_geom <= 1e-12 and worst_tav <= 1e-10 and worst_num <= 1e-12
    verdict(5, "algebraic identities", ok,
            f"alpha-theta-eps {worst_geom:.2e}; T_av {worst_tav:.2e}; "
            f"numerator {worst_num:.2e}")


def test_criterion_06_vanishing_contention_limits(p):
    times = derive_times(p)
    tau = 1e-6
    n = 10
    prob, t_tx, t_bo, epsilon, alpha, *_ = _slot_kernel(tau, n, times, p)
    theta = _geom_sums(prob, p.w0, p.m)[2]
    checks = {
        "eps": abs(epsilon - 1.0) < 1e-4,
        "theta": abs(theta - 15.5) < 1e-3,
        "alpha": abs(alpha - 16.5) < 1e-3,
        "t_tx": abs(t_tx - times.t_s) / times.t_s < 1e-4,
        "t_bo": abs(t_bo - p.slot_sigma) / p.slot_sigma < 1e-2,
    }
    ok = all(checks.values())
    verdict(6, "tau -> 0 limits", ok,
            f"eps={epsilon:.6f} theta={theta:.5f} alpha={alpha:.5f} "
            f"t_tx={t_tx:.4f} t_bo={t_bo:.4f} ({checks})")


def test_criterion_07_stage_occupancy_small_chain(p):
    import dataclasses
    small = dataclasses.replace(p, w0=4, m=2)
    worst = 0.0
    for prob in (0.1, 0.3, 0.6):
        pi = oracles.chain_stationary(prob, small.w0, small.m)
        b00 = 1.0 / _geom_sums(prob, small.w0, small.m)[3]
        for i in range(small.m + 1):
            worst = max(worst, abs(pi[(i, 0)] - prob ** i * b00))
    ok = worst <= 1e-8
    verdict(7, "stage heads b_i0 = p^i b_00", ok, f"worst abs dev {worst:.2e}")


def test_criterion_08_queue_empty_probability(p):
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(1_000):
        rho = float(rng.uniform(0.0, 2.0))
        k = int(rng.integers(1, 101))
        got = _queue_empty_probability(rho, k)
        want = oracles.queue_empty_sum(rho, k)
        worst = max(worst, abs(got - want))
    at_one = _queue_empty_probability(1.0, 50)
    near_one = _queue_empty_probability(1.0 - 1e-12, 50)
    limit_dev = max(abs(at_one - 1.0 / 51), abs(near_one - 1.0 / 51))
    ok = worst <= 1e-12 and limit_dev <= 1e-9
    verdict(8, "finite-queue empty probability", ok,
            f"worst abs dev {worst:.2e}; rho=1 dev {limit_dev:.2e}")


def test_criterion_09_model_inside_simulation_band(p, reports):
    t0 = time.perf_counter()
    rows = []
    ok = True
    for n in (5, 10):
        lam_c = reports[n].lambda_c
        for factor in (0.2, 0.5, 1.5):
            lam = factor * lam_c
            model = solve_fixed_point(lam, n, p).throughput
            cfg = SimConfig(n_stations=n, lambda_per_station=lam, params=p,
                            sim_duration=5e7, warmup=1e6, replications=10,
                            base_seed=2026_00 + int(100 * factor) + n)
            result = run(cfg)
            band = result.ci95_halfwidth + 0.05 * result.mean_throughput
            inside = abs(model - result.mean_throughput) <= band
            ok &= inside
            rows.append(f"N={n} {factor}lc: model={model:.4f} "
                        f"sim={result.mean_throughput:.4f}"
                        f"+/-{result.ci95_halfwidth:.4f} "
                        f"{'in' if inside else 'OUT'}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 600.0
    verdict(9, "model inside sim CI + 5%", ok,
            "; ".join(rows) + f"; {elapsed:.1f}s")


def test_criterion_10_single_station_closed_form(p):
    want = oracles.single_station_saturated_throughput()
    sat = solve_fixed_point(math.inf, 1, p).throughput
    unsat = solve_fixed_point(1e-2, 1, p).throughput  # rho approx 10
    cfg = SimConfig(n_stations=1, lambda_per_station=1e-2, params=p,
                    sim_duration=1e7, warmup=1e6, replications=5,
                    base_seed=404)
    sim = run(cfg).mean_throughput
    errs = {
        "saturated": abs(sat - want) / want,
        "fixed_point": abs(unsat - want) / want,
        "sim": abs(sim - want) / want,
    }
    ok = all(e <= 0.02 for e in errs.values())
    verdict(10, "N=1 closed form", ok,
            f"target={want:.6f} " + " ".join(
                f"{k}={e:.3%}" for k, e in errs.items()))


def test_criterion_11_deterministic_output(p, tmp_path):
    args_sets = {
        "table": ["table1", "--n", "10,20,30"],
        "sweep": ["sweep", "--n", "5", "--lambda-grid", "30,60,120",
                  "--with-sim", "--replications", "2",
                  "--duration-us", "300000", "--warmup-us", "30000",
                  "--seed", "99"],
        "sim": ["sim", "--n", "3", "--lambda", "50", "--replications", "2",
                "--duration-us", "200000", "--warmup-us", "20000",
                "--seed", "7"],
    }
    ok = True
    details = []
    for name, args in args_sets.items():
        out_a = tmp_path / f"{name}_a.csv"
        out_b = tmp_path / f"{name}_b.csv"
        code_a = main(args + ["--out", str(out_a)])
        code_b = main(args + ["--out", str(out_b)])
        same = out_a.read_bytes() == out_b.read_bytes()
        ok &= same and code_a == 0 and code_b == 0
        details.append(f"{name}:{'identical' if same else 'DIFFERS'}")
    verdict(11, "byte-identical CSV on rerun", ok, " ".join(details))
