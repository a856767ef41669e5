"""Property tests for the algebraic building blocks."""
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dcfkit import derive_times, get_profile, queue_empty_probability
from dcfkit.model import _slot_kernel
from dcfkit.params import _geom_sums

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
    got = queue_empty_probability(rho, k)
    want = oracles.queue_empty_sum(rho, k)
    assert 0.0 <= got <= 1.0
    assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12)


@given(tau_a=probabilities, tau_b=probabilities,
       n=st.integers(min_value=1, max_value=60))
def test_collision_probability_monotone(tau_a, tau_b, n):
    lo, hi = sorted((tau_a, tau_b))
    assert (_slot_kernel(lo, n, TIMES, PARAMS)[0]
            <= _slot_kernel(hi, n, TIMES, PARAMS)[0])
