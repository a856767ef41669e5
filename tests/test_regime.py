import dataclasses
import json
import math

import numpy as np
import pytest

from dcfkit import (ConvergenceError, ParameterError, SimConfig,
                    critical_lambda, derive_times, get_profile,
                    linear_throughput, solve_fixed_point)
from dcfkit.model import _s_of_tau
from dcfkit.regime import _critical_lambda, max_throughput

# Reference operating points for the dot11g-54 profile; the model is
# expected to land within 5 percent of each.
REFERENCE_TABLE = {
    10: (9.118, 111.2),
    20: (8.73, 53.235),
    30: (8.608, 34.99),
}


class TestMaxThroughput:
    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_reference_table(self, params, n):
        s_ref, _ = REFERENCE_TABLE[n]
        report = critical_lambda(n, params)
        assert report.s_max == pytest.approx(s_ref, rel=0.05)
        assert 0.0 < report.tau_max < 0.1
        assert report.tau_sat == solve_fixed_point(math.inf, n, params).tau

    def test_beats_dense_grid(self, params):
        # The grid covers the branch the fixed point reaches, (0, tau_sat].
        times = derive_times(params)
        for n in (2, 10, 30):
            s_max = critical_lambda(n, params).s_max
            tau_sat = solve_fixed_point(math.inf, n, params).tau
            grid = np.linspace(tau_sat / 10_000, tau_sat, 10_000)
            assert s_max >= max(_s_of_tau(float(t), n, times, params)
                                for t in grid)

    def test_above_saturated_operating_point(self, params, times):
        # The saturated point ends the branch that is searched, so S_m is
        # at least the saturated throughput.
        for n in (5, 10, 20):
            report = critical_lambda(n, params)
            sat = solve_fixed_point(math.inf, n, params)
            assert report.s_max >= sat.throughput
            assert report.s_max == pytest.approx(
                _s_of_tau(report.tau_max, n, times, params), rel=1e-12)

    @pytest.mark.parametrize("n", [*(10 ** e for e in range(6, 17)),
                                   10 ** 300])
    def test_large_networks_reach_the_limit(self, params, n):
        # tau_max is about 0.37/N, so the search's absolute stop of 1e-9
        # spans more of the peak as N grows; its stop relative to tau keeps
        # S_m at the large-N value of dot11g-54. The log1p form of
        # (1 - tau)^(n - 1) keeps S(tau) up to the station limit, 10**300.
        report = critical_lambda(n, params)
        assert report.s_max == pytest.approx(8.325394, abs=1e-5)
        assert report.lambda_c > 0

    @pytest.mark.parametrize("n", [10 ** 300 + 1, 10 ** 400])
    def test_refuses_networks_past_the_float_limit(self, params, n):
        # Past 10**300 stations lambda_c nears the bottom of the float
        # range; from about 2.2e304 the line's slope N * E[PL] overflows.
        with pytest.raises(ParameterError,
                           match=r"<= 10\*\*300 .* bottom of the float range"):
            max_throughput(n, params)

    def test_payload_scaling_keeps_argmax_identity(self, params):
        big = dataclasses.replace(params, payload_bits=2 * params.payload_bits)
        report = critical_lambda(10, big)
        assert report.lambda_c * 10 * big.payload_bits == pytest.approx(
            report.s_max, rel=1e-12)


class TestCriticalLambda:
    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_reference_rates(self, params, n):
        _, lam_ref = REFERENCE_TABLE[n]
        report = critical_lambda(n, params)
        assert report.lambda_c / 1e-6 == pytest.approx(lam_ref, rel=0.05)

    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_reference_table_to_its_printed_digits(self, params, n):
        # With no MAC header bits on the frame the model gives the table's
        # printed digits; the profile's 28-byte header stays within 5%.
        bare = dataclasses.replace(params, mac_header_bits=0)
        s_ref, lam_ref = REFERENCE_TABLE[n]
        report = critical_lambda(n, bare)
        assert report.s_max == pytest.approx(s_ref, rel=3e-4)
        assert report.lambda_c / 1e-6 == pytest.approx(lam_ref, rel=3e-4)

    def test_identity_is_exact(self, params):
        for n in (1, 2, 7, 10, 25, 50):
            report = critical_lambda(n, params)
            assert report.lambda_c * n * params.payload_bits == pytest.approx(
                report.s_max, rel=1e-12)
            s_linear = linear_throughput(report.lambda_c, n, params)
            assert s_linear == pytest.approx(report.s_max, rel=1e-12)

    def test_decreasing_in_n(self, params):
        rates = [critical_lambda(n, params).lambda_c for n in (5, 10, 20, 40)]
        assert all(b < a for a, b in zip(rates, rates[1:]))

    def test_small_networks_peak_at_saturation(self, params):
        # S(tau) still rises at tau_sat for N <= 10, so the largest
        # reachable throughput is the saturated one; beyond, it peaks inside.
        for n in range(1, 11):
            report = critical_lambda(n, params)
            sat = solve_fixed_point(math.inf, n, params)
            assert report.tau_max == report.tau_sat == sat.tau
            assert report.s_max == sat.throughput
        for n in range(11, 101):
            assert critical_lambda(n, params).tau_max < solve_fixed_point(
                math.inf, n, params).tau

    def test_regime_classification(self, params):
        report = critical_lambda(10, params)
        assert report.regime_of(0.5 * report.lambda_c) == "unsaturated"
        assert report.regime_of(report.lambda_c) == "saturated"
        assert report.regime_of(2.0 * report.lambda_c) == "saturated"

    @pytest.mark.parametrize("lam, message", [
        *((lam, "^lam must be >= 0") for lam in (math.nan, -1.0, -math.inf)),
        *((lam, "^lam must be a number") for lam in (True, "1e-5", None)),
    ])
    def test_regime_of_refuses_a_bad_rate(self, params, lam, message):
        # params._check_rate's refusal, not a regime for a rate that is
        # none.
        with pytest.raises(ParameterError, match=message):
            critical_lambda(10, params).regime_of(lam)


class TestLinearThroughput:
    def test_zero(self, params):
        assert linear_throughput(0.0, 10, params) == 0.0

    def test_reference_consistency(self, params):
        # slope times the published critical rate reproduces the published
        # maximum throughput for each row of the reference table.
        for n, (s_ref, lam_ref) in REFERENCE_TABLE.items():
            assert linear_throughput(lam_ref * 1e-6, n, params) == (
                pytest.approx(s_ref, rel=1e-3))

    def test_domain(self, params):
        with pytest.raises(ParameterError, match="^lam must be >= 0"):
            linear_throughput(-1e-6, 10, params)
        for fn, args in ((linear_throughput, (1e-6,)), (critical_lambda, ())):
            with pytest.raises(ParameterError, match="^n must be >= 1$"):
                fn(*args, 0, params)

    @pytest.mark.parametrize("n", [2.5, True, math.nan, 0])
    @pytest.mark.parametrize("fn, args", [
        pytest.param(solve_fixed_point, (1e-5,), id="solve_fixed_point"),
        pytest.param(max_throughput, (), id="max_throughput"),
        pytest.param(linear_throughput, (1e-5,), id="linear_throughput"),
        pytest.param(critical_lambda, (), id="critical_lambda"),
    ])
    def test_station_count_is_refused_like_sim_config(self, params, fn, args,
                                                      n):
        # SimConfig refuses each of these n_stations; an input error, not
        # the solver's ConvergenceError.
        with pytest.raises(ParameterError, match="^n must be"):
            fn(*args, n, params)
        with pytest.raises(ParameterError, match="n_stations"):
            SimConfig(n_stations=n, lambda_per_station=1e-5, params=params)

    def test_past_the_float_range_is_refused(self, params):
        # As max_throughput refuses N past 10**300: a slope N * E[PL] or a
        # product N * E[PL] * lam that overflows raises ParameterError, not
        # OverflowError or an inf. The saturated rate lam = inf stays inf.
        big = dataclasses.replace(params, payload_bits=10 ** 300)
        message = (r"^the linear law's slope N \* E\[PL\], or its value at "
                   r"lam {}, overflows the float range$")
        for fn, args, lam in ((linear_throughput, (1e-5,), "1e-05"),
                              (linear_throughput, (0.0,), "0.0"),
                              (linear_throughput, (math.inf,), "inf"),
                              (critical_lambda, (), "1.0")):
            with pytest.raises(ParameterError, match=message.format(lam)):
                fn(*args, 10 ** 9, big)
        with pytest.raises(ParameterError,
                           match=message.format(r"1e\+305")):
            linear_throughput(1e305, 10, params)
        assert linear_throughput(1e-5, 10 ** 7, big) == 10 ** 307 * 1e-5
        assert linear_throughput(math.inf, 10, params) == math.inf

    def test_a_rate_past_the_float_range_is_refused(self, params):
        # An int rate past the range gave a 405-digit int slope * lam.
        with pytest.raises(ParameterError,
                           match="^lam is too large for a float$"):
            linear_throughput(10 ** 400, 10, params)

    def test_numpy_station_count_passes(self, params):
        assert linear_throughput(1e-5, np.int64(10), params) == (
            linear_throughput(1e-5, 10, params))

    def test_narrow_numpy_station_count_does_not_overflow(self, params):
        # 200 * 8200 leaves uint8's range; a Python int does not.
        assert linear_throughput(1e-5, np.uint8(200), params) == (
            linear_throughput(1e-5, 200, params))

    def test_numpy_station_count_does_not_wrap(self, params):
        # N * E[PL] wraps to 0 in int64 at N = 2**62, which would give
        # lambda_c = inf; the count is taken as the Python int.
        report = critical_lambda(np.int64(2 ** 62), params)
        assert report == critical_lambda(2 ** 62, params)
        assert math.isfinite(report.lambda_c)

    def test_numpy_station_count_is_reported_as_an_int(self, params):
        _critical_lambda.cache_clear()  # a warm 10 would hide a cold miss
        report = critical_lambda(np.int64(10), params)
        assert type(report.n) is int and report.n == 10

    def test_nan_is_refused_like_the_solver(self, params):
        # Every entry point that takes a rate refuses a bad one through
        # params._check_rate, naming the argument. inf is the model's
        # saturated operating point, but no rate for the simulator.
        for fn in (linear_throughput, solve_fixed_point):
            with pytest.raises(ParameterError,
                               match="^lam must be >= 0, got nan$"):
                fn(math.nan, 10, params)
        report = critical_lambda(10, params)
        model = (lambda lam: solve_fixed_point(lam, 10, params),
                 lambda lam: linear_throughput(lam, 10, params),
                 report.regime_of)
        bad = (True, "1e-5", None, math.nan, -1.0)
        messages = ("a number, got True", "a number, got '1e-5'",
                    "a number, got None", ">= 0, got nan", ">= 0, got -1.0")
        for fn in model:
            for lam, message in zip(bad, messages):
                with pytest.raises(ParameterError,
                                   match=f"^lam must be {message}$"):
                    fn(lam)
            for lam in (0, 0.0, math.inf):
                fn(lam)
        for lam, message in zip((*bad, math.inf), (
                *messages[:3], "finite and >= 0, got nan",
                "finite and >= 0, got -1.0", "finite and >= 0, got inf")):
            with pytest.raises(ParameterError, match=(
                    f"^lambda_per_station must be {message}$")):
                SimConfig(n_stations=2, lambda_per_station=lam, params=params)


class TestCache:
    """critical_lambda memoises its reports per (N, params); every case
    below holds on a warm cache."""

    @pytest.fixture
    def searches(self, monkeypatch):
        # Counts the misses, as a tracer wrapping regime.max_throughput
        # sees them.
        calls = []

        def counted(n, params):
            calls.append(n)
            return max_throughput(n, params)

        monkeypatch.setattr("dcfkit.regime.max_throughput", counted)
        return calls

    def test_bad_station_counts_are_refused_when_warm(self, params):
        # True and 10.0 hash like 1 and 10, which are cached.
        critical_lambda(1, params)
        critical_lambda(10, params)
        for n, message in ((True, "^n must be an integer, got True$"),
                           (10.0, "^n must be an integer, got 10.0$")):
            with pytest.raises(ParameterError, match=message):
                critical_lambda(n, params)

    def test_unhashable_params_are_refused(self, params):
        critical_lambda(10, params)
        with pytest.raises(ParameterError, match="^params must be a Phy"):
            critical_lambda(10, dataclasses.asdict(params))

    def test_networks_past_the_limit_are_refused_on_every_call(
            self, params, searches):
        for _ in range(3):
            with pytest.raises(ParameterError, match=r"<= 10\*\*300"):
                critical_lambda(10 ** 300 + 1, params)
        assert searches == [10 ** 300 + 1] * 3

    def test_convergence_errors_are_not_cached(self, params, monkeypatch):
        calls = []

        def fail(n, params):
            calls.append(n)
            raise ConvergenceError("no sign change")

        _critical_lambda.cache_clear()
        monkeypatch.setattr("dcfkit.regime.max_throughput", fail)
        for _ in range(2):
            with pytest.raises(ConvergenceError):
                critical_lambda(10, params)
        assert calls == [10, 10]
        monkeypatch.undo()
        assert critical_lambda(10, params).n == 10

    def test_warm_report_is_the_cold_one(self, params, searches):
        _critical_lambda.cache_clear()
        cold = critical_lambda(20, params)
        assert critical_lambda(20, params) is cold
        assert critical_lambda(np.int64(20), params) is cold
        assert searches == [20]
        _critical_lambda.cache_clear()
        fresh = critical_lambda(20, params)
        assert fresh == cold and fresh is not cold
        assert searches == [20, 20]

    def test_equal_parameter_file_shares_the_entry(self, params, tmp_path,
                                                   searches):
        path = tmp_path / "dot11g-54.json"
        path.write_text(json.dumps(dataclasses.asdict(params)))
        copy = get_profile(path)
        assert copy is not params
        _critical_lambda.cache_clear()
        report = critical_lambda(30, params)
        assert critical_lambda(30, copy) is report
        assert searches == [30]

    def test_default_size(self):
        assert _critical_lambda.cache_info().maxsize == 128


def linearity_error(lam, n, params):
    """Relative gap between the solved model and the linear law at lam."""
    s_line = linear_throughput(lam, n, params)
    return abs(solve_fixed_point(lam, n, params).throughput - s_line) / s_line


class TestLinearityError:
    def test_small_load_is_linear(self, params):
        report = critical_lambda(10, params)
        assert linearity_error(0.1 * report.lambda_c, 10, params) < 0.05
        assert linearity_error(0.01 * report.lambda_c, 10, params) < 0.01

    def test_grows_toward_the_knee(self, params):
        report = critical_lambda(10, params)
        low = linearity_error(0.1 * report.lambda_c, 10, params)
        high = linearity_error(0.8 * report.lambda_c, 10, params)
        assert high > low
        assert high < 0.10
