"""Property tests for the algebraic building blocks and for the shape of
the model that the solver and the critical-rate search rely on."""
import dataclasses
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import optimize

import oracles
from dcfkit import (critical_lambda, derive_times, get_profile,
                    solve_fixed_point)
from dcfkit.model import (_BRACKET, _RTOL, _SAT_MARGIN, _XTOL, _brentq,
                          _geom_sums, _network, _queue_empty_probability,
                          _s_of_tau, _slot_kernel, _state_at)

PARAMS = get_profile("dot11g-54")
TIMES = derive_times(PARAMS)

probabilities = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
windows = st.sampled_from([2, 4, 8, 16, 32, 64])
stages = st.integers(min_value=1, max_value=8)


@given(p=probabilities, w0=windows, m=stages)
def test_alpha_minus_theta_equals_epsilon(p, w0, m):
    _, epsilon, theta, alpha = _geom_sums(p, w0, m)
    assert abs(alpha - theta - epsilon) <= 1e-12 * epsilon


@given(p=probabilities, w0=windows, m=stages)
def test_geom_sums_match_term_oracle(p, w0, m):
    gamma, epsilon, _, _ = _geom_sums(p, w0, m)
    assert math.isclose(gamma, oracles.geom_gamma(p, m),
                        rel_tol=1e-12, abs_tol=0.0)
    assert math.isclose(epsilon, oracles.geom_epsilon(p, m),
                        rel_tol=1e-12, abs_tol=0.0)


@settings(max_examples=200)
@given(rho=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
       k=st.integers(min_value=1, max_value=200))
@example(rho=46.37, k=185)  # the oracle's fsum overflows on finite terms
def test_queue_empty_probability_matches_sum(rho, k):
    # pi_0 is mathematically positive but underflows to 0.0 for deeply
    # overloaded queues; the oracle overflows to the same answer.
    got = _queue_empty_probability(rho, k)
    want = oracles.queue_empty_sum(rho, k)
    assert 0.0 <= got <= 1.0
    assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)


@given(tau_a=probabilities, tau_b=probabilities,
       n=st.integers(min_value=1, max_value=60))
def test_collision_probability_monotone(tau_a, tau_b, n):
    lo, hi = sorted((tau_a, tau_b))
    assert (_slot_kernel(lo, n, TIMES, PARAMS)[0]
            <= _slot_kernel(hi, n, TIMES, PARAMS)[0])


@st.composite
def networks(draw):
    """A station count and a PhyMacParams varied around dot11g-54."""
    w0 = draw(st.integers(min_value=2, max_value=128))
    m = draw(st.integers(min_value=1, max_value=8))
    params = dataclasses.replace(
        PARAMS, w0=w0, m=m,
        payload_bits=draw(st.integers(min_value=64, max_value=18_496)),
        data_rate=draw(st.floats(min_value=1.0, max_value=600.0)),
        slot_sigma=draw(st.floats(min_value=5.0, max_value=50.0)),
        eifs=draw(st.floats(min_value=10.0, max_value=1000.0)),
        queue_capacity_k=draw(st.integers(min_value=1, max_value=200)))
    return draw(st.integers(min_value=1, max_value=200)), params


# Per-station arrival rates from 1e-317 to 100 000 pkt/s, plus saturation.
finite_rates = st.floats(min_value=-323.0, max_value=-1.0).map(
    lambda e: 10.0 ** e)
rates = st.one_of(finite_rates, st.just(math.inf))

# Brent's bracket, sampled geometrically from 1e-15 where light load puts
# the root; tinier rates put it in the first cell.
BRACKET_GRID = np.concatenate(([_BRACKET[0]], np.geomspace(1e-15, 1e-3, 150),
                               np.linspace(1e-3, _BRACKET[1], 250)[1:]))


def reachable_grid(n, params, points=2000):
    """tau_sat and S on an even grid of the reachable branch (0, tau_sat]."""
    tau_sat = solve_fixed_point(math.inf, n, params).tau
    times = derive_times(params)
    grid = np.linspace(tau_sat / points, tau_sat, points)
    return tau_sat, np.array([_s_of_tau(float(t), n, times, params)
                              for t in grid])


def robust_sign_changes(g, grid):
    """Sign changes of g on grid, past values within rounding noise of 0."""
    values = [(g(float(t)), t) for t in grid]
    signs = [v > 0.0 for v, t in values if abs(v) > 1e-13 * t]
    return sum(a != b for a, b in zip(signs, signs[1:]))


@given(net=networks(), lam=rates)
@example(net=(200, dataclasses.replace(
    PARAMS, payload_bits=64, data_rate=2.0, slot_sigma=5.0, eifs=521.0, w0=2,
    m=5, queue_capacity_k=2)), lam=3.5355995896975475e-06)  # lambda_c
def test_residual_changes_sign_an_odd_number_of_times(net, lam):
    # Mostly once. Near lambda_c many networks have three roots, and the
    # solve, split at tau_max, then lands in one of their cells. Past the
    # first cell the grid also holds tau (1 +/- 1e-6), as two roots can
    # share one of its cells: in the example the roots 0.00314 and 0.00501
    # share (0.001, 0.00501].
    n, params = net
    times = derive_times(params)

    def g(t):
        return t - _state_at(t, lam, n, times, params)

    tau = solve_fixed_point(lam, n, params).tau
    grid = BRACKET_GRID
    if tau > grid[1]:
        grid = np.union1d(grid, (tau * (1.0 - 1e-6), tau * (1.0 + 1e-6)))
    values = np.array([g(float(t)) for t in grid])
    assert values[0] < 0.0 < values[-1]
    changes = np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:]))
    count = robust_sign_changes(g, grid)
    if count == 1:
        assert len(changes) == 1
    else:
        assert count % 2 == 1 and count <= 3, count
    assert any(grid[i] <= tau <= grid[i + 1] for i in changes)


@given(net=networks(), lam=st.one_of(st.just(0.0), rates))
@example(net=(1, PARAMS), lam=math.inf)  # on the bound
def test_root_lies_below_the_collision_free_attempt_rate(net, lam):
    # b00 <= 1/alpha bounds the map by epsilon/alpha = 2/(w0 gamma/epsilon
    # + 1), and gamma >= epsilon, so no root lies above 2/(w0 + 1). N = 1
    # at saturation sits on the bound, a rounding step above it.
    n, params = net
    tau = solve_fixed_point(lam, n, params).tau
    assert 0.0 <= tau <= 2.0 / (params.w0 + 1) * (1.0 + 1e-12)


@given(net=networks(), lam=finite_rates)
def test_bracket_capped_at_tau_sat_keeps_the_root(net, lam):
    # No map exceeds the saturated one, so the residual is positive just
    # above tau_sat and Brent on the bracket capped there finds the
    # uncapped root.
    n, params = net
    times = derive_times(params)

    def g(t):
        return t - _state_at(t, lam, n, times, params)

    tau_sat = solve_fixed_point(math.inf, n, params).tau
    cap = tau_sat * _SAT_MARGIN
    assert g(cap) > 0
    capped, _, converged = _brentq(g, _BRACKET[0], cap)
    assert converged
    uncapped = _brentq(g, *_BRACKET)[0]
    assert abs(capped - uncapped) <= 1e-12 * uncapped + _XTOL


@given(net=networks(), share=st.floats(min_value=0.0, max_value=5.0))
def test_a_memoised_root_gives_the_cold_record(net, share):
    # A hit builds its record from the values the cold solve kept, so
    # every field is the cold one's bit for bit, iterations included.
    n, params = net
    lam = share * critical_lambda(n, params).lambda_c
    records = _network(n, params)[1]
    records.pop(lam, None)
    cold = solve_fixed_point(lam, n, params)
    kept = records[lam]
    hit = solve_fixed_point(lam, n, params)
    assert oracles.record_bits(hit) == oracles.record_bits(cold)
    assert hit is not cold
    assert records[lam] is kept  # the hit stored no new record


@given(net=networks(), lam=rates)
def test_brentq_matches_scipy_on_every_bracket(net, lam):
    # _brentq transliterates scipy's brentq.c, so root, call count and
    # convergence flag agree exactly on the full bracket (the saturated
    # solve's), on the reachable branch split at tau_max (a finite rate's)
    # and on it split at tau_sat, which no solve uses but is one more input
    # to Brent. A given end value counts as a call.
    n, params = net
    times = derive_times(params)

    def g(t):
        return t - _state_at(t, lam, n, times, params)

    report = critical_lambda(n, params)
    cap = report.tau_sat * _SAT_MARGIN
    brackets = [(_BRACKET[0], _BRACKET[1], None, None),
                *(oracles.split_bracket(g, _BRACKET[0], cap, split_at)
                  for split_at in (report.tau_max, report.tau_sat))]
    for lo, hi, g_lo, g_hi in brackets:
        want, info = optimize.brentq(g, lo, hi, xtol=_XTOL, rtol=_RTOL,
                                     full_output=True)
        assert _brentq(g, lo, hi, g_lo, g_hi) == (
            want, info.function_calls, info.converged), (lo, hi)


@given(net=networks())
def test_split_bracket_keeps_a_lone_root(net):
    # Where g changes sign once on the bracket capped at tau_sat, the half
    # that the sign of g at tau_max picks holds that root, and Brent on the
    # capped bracket and the solve, split there, both find it.
    # Near lambda_c g can be nearly tangent to 0, and the taus that
    # rounding cannot tell from its root then span tens of ulps, so the
    # bound is 1e-12 of tau rather than Brent's tolerance. On many networks
    # g has three roots near lambda_c (dot11g-54 from about N = 13), and
    # each bracket may keep a different one: there both solves only
    # converge.
    n, params = net
    times = derive_times(params)
    report = critical_lambda(n, params)
    cap = report.tau_sat * _SAT_MARGIN
    coarse = np.geomspace(1e-15 * cap, cap, 300)
    for share in (0.01, 0.3, 0.9, 1.0, 1.05, 3.0):
        lam = share * report.lambda_c

        def g(t):
            return t - _state_at(t, lam, n, times, params)

        capped, _, converged = _brentq(g, _BRACKET[0], cap)
        assert converged, share
        split = solve_fixed_point(lam, n, params).tau
        lo, hi = sorted((capped, split))
        grid = np.union1d(coarse, np.linspace(lo, hi, 64))
        if robust_sign_changes(g, grid) == 1:
            assert hi - lo <= 1e-12 * hi + _XTOL, share


@given(net=networks())
def test_tau_rises_with_load_up_to_saturation(net):
    # Brent's roots are exact to a few ulps, so ties may differ by that.
    n, params = net
    tau_sat = solve_fixed_point(math.inf, n, params).tau
    taus = [solve_fixed_point(lam, n, params).tau
            for lam in np.geomspace(1e-8, 1e-1, 30)]
    slack = 1.0 + 1e-13
    assert all(a <= b * slack for a, b in zip(taus, taus[1:]))
    assert all(tau <= tau_sat * slack for tau in taus)


@given(net=networks())
def test_throughput_is_unimodal_on_the_reachable_branch(net):
    n, params = net
    _, s = reachable_grid(n, params)
    steps = np.diff(s)
    noise = 1e-12 * s.max()
    falling = np.flatnonzero(steps < -noise)
    if len(falling):
        assert not np.any(steps[falling[0]:] > noise)


@given(net=networks())
def test_max_throughput_beats_the_reachable_grid(net):
    # S carries a few ulps of rounding noise, and on its flat top that
    # noise decides the search's comparisons: the slack is far below the
    # ten digits the CSV prints.
    n, params = net
    tau_sat, s = reachable_grid(n, params)
    report = critical_lambda(n, params)
    assert report.s_max >= s.max() * (1.0 - 1e-13)
    assert 0.0 < report.tau_max <= tau_sat


# As N grows with x = N * tau held fixed, S_m = S_inf * (1 + c/N), where
# oracles.s_infinity finds S_inf and its x* without the golden-section
# search or the log1p silence factor. Over networks()' ranges c measured
# 0.35 to 0.94 (0.8165 on dot11g-54), so C is 1. The floor covers the
# search's stopping width of 1e-6 of tau: from N = 1e16, |S_m/S_inf - 1|
# measured at most 2.1e-14, and |N * tau_max - x*| from N = 1e8 at most
# 1.7e-7.
LARGE_N = (10 ** 4, 10 ** 8, 10 ** 16, 10 ** 300)


@settings(max_examples=40, deadline=None)
@given(net=networks())
@example(net=(10, PARAMS))
def test_large_networks_approach_the_limit_as_one_over_n(net):
    _, params = net
    s_inf, _ = oracles.s_infinity(params)
    for n in LARGE_N:
        gap = critical_lambda(n, params).s_max / s_inf - 1.0
        assert abs(gap) <= 1.0 / n + 1e-13, n


@settings(max_examples=40, deadline=None)
@given(net=networks())
@example(net=(10, PARAMS))
def test_large_networks_peak_at_the_limits_x(net):
    _, params = net
    _, x_star = oracles.s_infinity(params)
    for n in LARGE_N[1:]:
        tau_max = critical_lambda(n, params).tau_max
        assert abs(n * tau_max - x_star) <= 1e-6, n


@given(w0=st.integers(min_value=2, max_value=1024),
       m=st.integers(min_value=1, max_value=8),
       n=st.integers(min_value=1, max_value=200))
def test_saturated_tau_is_the_wu_finite_retry_root(w0, m, n):
    # The model discards a packet after m + 1 failed attempts, so its
    # saturated tau solves tau = wu(1 - (1 - tau)^(n - 1)). The map at
    # p = 0 bounds the root, and is the root itself for n = 1.
    params = dataclasses.replace(PARAMS, w0=w0, m=m)
    tau = solve_fixed_point(math.inf, n, params).tau
    top = 2.0 / (w0 + 1)

    def p_of(t):
        return 1.0 - (1.0 - t) ** (n - 1)

    # The closed form is 0/0 at p = 1/2 and p = 1 and loses digits next
    # to both, so skip a root there and a bracket end on either.
    assume(min(abs(1.0 - 2.0 * p_of(tau)), 1.0 - p_of(tau)) >= 1e-6)
    assume(p_of(top) not in (0.5, 1.0))
    root = optimize.brentq(
        lambda t: t - oracles.wu_saturated_tau(p_of(t), w0, m), 0.0, top,
        xtol=1e-300)
    assert math.isclose(tau, root, rel_tol=1e-9)
