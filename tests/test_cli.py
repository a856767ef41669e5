import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import sys
import tracemalloc

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from dcfkit import (ConvergenceError, critical_lambda, linear_throughput,
                    solve_fixed_point)
from dcfkit.cli import _auto_grid, _cell, _parse, _parser, _rates, main
from dcfkit.model import _network
from dcfkit.params import ParameterError
from test_package import _run_python


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def assert_one_line_error(capsys):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return err


def write_params(path, params, overrides):
    """A parameter file for --profile: a dict is merged into every field of
    params, anything else is the file's whole JSON content."""
    if isinstance(overrides, dict):
        overrides = {**dataclasses.asdict(params), **overrides}
    path.write_text(json.dumps(overrides))
    return str(path)


_SWEEP_SIM = ("--n", "5", "--lambda-grid", "20,60,400", "--with-sim",
              "--duration-us", "3e5", "--warmup-us", "0", "--seed", "4")
_SIM = ("--n", "10", "--lambda", "50", "--duration-us", "3e5",
        "--warmup-us", "0", "--seed", "3")

_EMPTY = hashlib.sha256(b"").hexdigest()

_PINNED = {
    # name: (argv without --out, exit code, sha256 of stdout, of the CSV)
    "table1": (
        ["table1", "--n", "1,10,20,30"], 0,
        "21cf4b99dbe0afae0b2afcb03a37be66"
        "0fee083e1e147c8931321d12f645f742",
        "0ac92b956f2f7fee1914312b1fc7b2e4"
        "895fa519d24a8fcf04d72a47b39cccd7"),
    "sweep-auto": (
        ["sweep", "--n", "1,10,50", "--lambda-grid", "auto"], 0,
        _EMPTY,
        "d226d4839f5c041715ebfddde56bc7fd"
        "13c451f7f2d1fb541a4bf38986f9a6c3"),
    # Every N of the curve workload on its auto grid: 2500 solves.
    "sweep-auto-1-100": (
        ["sweep", "--n", ",".join(map(str, range(1, 101))),
         "--lambda-grid", "auto"], 0,
        _EMPTY,
        "3d64ccb306f46931487d242a45de0452"
        "7a16e10fdb01a57beb21463d860c701f"),
    "sweep-sim-3": (
        ["sweep", *_SWEEP_SIM, "--replications", "3"], 0,
        _EMPTY,
        "64458e6a2fcf2174a7b8f452aebcef13"
        "df1cff4fa774d474767304c14f73e031"),
    # Point i runs seeds 9 + 10000 * i + r, i counted over both networks.
    "sweep-sim-multi": (
        ["sweep", "--n", "2,5", "--lambda-grid", "30,400", "--with-sim",
         "--replications", "2", "--duration-us", "2e5", "--warmup-us", "0",
         "--seed", "9"], 0,
        _EMPTY,
        "756ee2db85ed0a0f575ba3f85237e59b"
        "2a800ee8bf73e83c2f779b1cfc385c0d"),
    "sweep-sim-1": (
        ["sweep", *_SWEEP_SIM, "--replications", "1"], 0,
        _EMPTY,
        "3069b53f98ba00ffff62007b14698751"
        "3d2157faafc6777131989ff34d400028"),
    "compare-3": (
        ["compare", "--n", "5,10", "--lambda-grid", "30,70,400",
         "--replications", "3", "--duration-us", "3e5",
         "--warmup-us", "0", "--seed", "7"], 0,
        "0cbd9ad277aeef3f5a387234c828b54a"
        "a37e1fa817f24a8a73435766b8e88ae1",
        "fb7ead3428be0bf9ff4545dd4bedc369"
        "3835f9cb0b76bfd76583e695ff230c28"),
    "compare-1": (
        ["compare", "--n", "2", "--lambda-grid", "40",
         "--replications", "1", "--duration-us", "1e5",
         "--warmup-us", "0"], 3,
        "aee1669fb17c79e904c88edd388cfb42"
        "5c0b78b14bfd1d9a680833b085e55e0d",
        "bf5afa11567e1f8a5ffc33c921fc7edc"
        "b34e8abcaf5875264c466760431faa3d"),
    "sim-3": (
        ["sim", *_SIM, "--replications", "3"], 0,
        "9f1da4d3c1cd8a991b5119c8d14fca3a"
        "91c02ae4f66fad3eb4358004b271d78d",
        "69dd70e1f87c87924389677d920fb09a"
        "8a2241d23420b91f55fca204610d6736"),
    "sim-1": (
        ["sim", *_SIM, "--replications", "1"], 0,
        "f0a5b36797b71ff4eaf39a13bc952c0c"
        "719bb195aaceefe5787951356a254003",
        "98019fa3baedb3e9e80f17ff7940c153"
        "4e8acb97321b07585f609afa1cb96050"),
    # No settings flags: every setting is SimConfig's default.
    "sim-defaults": (
        ["sim", "--n", "2", "--lambda", "40"], 0,
        "6279e903e459e82e323c8462e7e22fde"
        "cec0fb22b4bafd3243e1d45c87108f83",
        "5f4c539080b02cd7856cc6388da4b69d"
        "e2d60ab8d3715e5553bd07475f0bf1f8"),
    "sweep-sim-defaults": (
        ["sweep", "--n", "2", "--lambda-grid", "40", "--with-sim"], 0,
        _EMPTY,
        "2e73bd28df9ae9247b09aa85456eb3eb"
        "001cbe72485409e49c5f1fa6ff54c79a"),
}

# Every solve fails with a message that carries a comma and a double quote,
# so these pin the error column and its CSV quoting.
_FAILED_SOLVE = 'no sign change on (0.0, 1.0), "tau" NaN'
_PINNED_FAILED = {
    "sweep-failed": (
        ["sweep", "--n", "10", "--lambda-grid", "30,50"], 2,
        _EMPTY,
        "c875bd2fedf2fe5f2d82f2e659c8cc44"
        "85d7e4d38c330b7d9d0ae5cf3130525e"),
    "compare-failed": (
        ["compare", "--n", "2", "--lambda-grid", "40",
         "--replications", "1", "--duration-us", "1e5",
         "--warmup-us", "0"], 2,
        "1569d1d86c3e953e1bf80894c11dc88c"
        "ae80bf0c5ebacd98d24c743414e3dc09",
        "6a666a5e02d6b2c1ed2eb5da8af7c3e8"
        "040f747a05e114c21da6c2f208809091"),
}


def fail_every_solve(monkeypatch):
    def fail(lam, n, params):
        raise ConvergenceError(_FAILED_SOLVE)

    monkeypatch.setattr("dcfkit.cli.solve_fixed_point", fail)


class TestPinnedOutputs:
    @pytest.mark.parametrize("name", sorted(_PINNED))
    def test_output_matches_recorded_digest(self, tmp_path, capsys, name):
        argv, code, stdout_sha, csv_sha = _PINNED[name]
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == code
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == stdout_sha
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha

    @pytest.mark.parametrize("name", sorted(_PINNED_FAILED))
    def test_failed_solves_match_recorded_digest(self, tmp_path, capsys,
                                                 monkeypatch, name):
        fail_every_solve(monkeypatch)
        argv, code, stdout_sha, csv_sha = _PINNED_FAILED[name]
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == code
        printed = capsys.readouterr().out.encode()
        assert hashlib.sha256(printed).hexdigest() == stdout_sha
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha


class TestCsvText:
    # The tables are written as text, not through csv.writer; Python's csv
    # module must read them back cell for cell.
    @given(text=st.text())
    def test_cell_reads_back_as_its_text(self, text):
        # Python 3.10's csv module refuses a NUL character both ways.
        assume("\0" not in text or sys.version_info >= (3, 11))
        line = "x," + _cell(text) + "\n"
        rows = list(csv.reader(io.StringIO(line, newline="")))
        assert rows == [["x", text]]
        if "\r" not in text:  # before 3.13 csv.writer leaves a lone CR bare
            buf = io.StringIO()
            csv.writer(buf, lineterminator="\n").writerow(("x", text))
            assert buf.getvalue() == line

    @pytest.mark.parametrize("name", ["table1", "sweep-auto", "sweep-sim-1",
                                      "compare-3", "sim-3", "sweep-failed"])
    def test_pinned_table_reads_back(self, tmp_path, monkeypatch, name):
        if name in _PINNED_FAILED:
            fail_every_solve(monkeypatch)
        argv, code, _, _ = {**_PINNED, **_PINNED_FAILED}[name]
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == code
        with open(out, newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        assert rows and all(len(row) == len(header) for row in rows)
        if name == "sweep-failed":
            assert {row[-1] for row in rows} == {
                f"no convergence: {_FAILED_SOLVE}"}


class TestCsvFile:
    # A file is written through os.open and os.write, not open().
    _ARGV = ["sweep", "--n", "1,10,50", "--lambda-grid", "auto"]

    def test_short_writes_give_the_same_file(self, tmp_path, monkeypatch):
        whole = tmp_path / "whole.csv"
        assert main([*self._ARGV, "--out", str(whole)]) == 0
        write = os.write
        calls = []

        def one_byte(fd, data):
            calls.append(len(data))
            return write(fd, bytes(data[:1]))

        monkeypatch.setattr(os, "write", one_byte)
        short = tmp_path / "short.csv"
        assert main([*self._ARGV, "--out", str(short)]) == 0
        assert short.read_bytes() == whole.read_bytes()
        assert len(calls) == len(whole.read_bytes())
        assert hashlib.sha256(short.read_bytes()).hexdigest() == (
            _PINNED["sweep-auto"][3])

    def test_overwrite_truncates(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"x" * 100_000)
        assert main([*self._ARGV, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            _PINNED["sweep-auto"][3])

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002, 0o000])
    def test_new_file_mode_is_open_w_mode(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "by-open.csv", "w"):
                pass
            out = tmp_path / "by-cli.csv"
            assert main(["table1", "--n", "10", "--out", str(out)]) == 0
        finally:
            os.umask(old)
        mode = (tmp_path / "by-open.csv").stat().st_mode & 0o777
        assert out.stat().st_mode & 0o777 == mode == 0o666 & ~umask


class TestTable1:
    def test_happy_path(self, params, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(["table1", "--n", "10,20", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert [r["n"] for r in rows] == ["10", "20"]
        printed = capsys.readouterr().out
        assert "S_m" in printed
        report = critical_lambda(10, params)
        assert float(rows[0]["s_max_mbps"]) == pytest.approx(report.s_max,
                                                             rel=1e-9)
        assert float(rows[0]["lambda_c_pkt_s"]) == pytest.approx(
            report.lambda_c / 1e-6, rel=1e-9)

    def test_identity_in_output(self, params, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table1", "--n", "30", "--out", str(out)]) == 0
        row = read_csv(out)[0]
        slope = 30 * params.payload_bits
        lam_c = float(row["lambda_c_pkt_s"]) * 1e-6
        assert lam_c * slope == pytest.approx(float(row["s_max_mbps"]),
                                              rel=1e-9)

    def test_unknown_profile_exits_1(self, capsys):
        assert main(["table1", "--profile", "no-such-profile"]) == 1
        assert "dot11g-54" in assert_one_line_error(capsys)

    def test_bad_n_exits_1(self, capsys):
        assert main(["table1", "--n", "ten"]) == 1
        assert "bad station count list" in assert_one_line_error(capsys)
        assert main(["table1", "--n", "0"]) == 1
        assert "station count must be >= 1" in assert_one_line_error(capsys)
        for empty in (["--n", ","], ["--n="]):
            assert main(["table1", *empty]) == 1
            assert assert_one_line_error(capsys) == (
                "error: station count list must not be empty\n")
        # argparse's own errors take the same exit code and one line.
        assert main(["table1", "--n"]) == 1
        assert "expected one argument" in assert_one_line_error(capsys)

    def test_payload_past_the_float_range_exits_1(self, params, tmp_path,
                                                  capsys):
        # 10**9 stations of 10**300 payload bits: the linear law's slope
        # N * E[PL], which lambda_c divides by, overflows the float range.
        pfile = write_params(tmp_path / "params.json", params,
                             {"payload_bits": 10 ** 300})
        assert main(["table1", "--n", str(10 ** 9), "--profile", pfile]) == 1
        assert "overflows the float range" in assert_one_line_error(capsys)


class TestSweep:
    def test_model_only_schema(self, params, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--n", "10", "--lambda-grid", "20,50,400",
                     "--out", str(out)])
        assert code == 0
        with open(out, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == ["n", "lambda_pkt_s", "s_model_mbps",
                          "s_linear_mbps", "s_max_mbps", "regime",
                          "s_sim_mbps", "sim_ci95_mbps", "error"]
        rows = read_csv(out)
        assert [r["regime"] for r in rows] == ["unsaturated", "unsaturated",
                                               "saturated"]
        assert all(r["s_sim_mbps"] == "" for r in rows)

    def test_linear_equals_smax_at_critical_rate(self, params, tmp_path):
        report = critical_lambda(10, params)
        lam_c_pkt_s = report.lambda_c / 1e-6
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "10", "--lambda-grid",
                     f"{lam_c_pkt_s!r}", "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["s_linear_mbps"]) == pytest.approx(
            float(row["s_max_mbps"]), rel=1e-9)
        assert row["regime"] == "saturated"

    def test_deep_saturation_tracks_saturated_solver(self, params, tmp_path):
        report = critical_lambda(30, params)
        lam = 3.0 * report.lambda_c / 1e-6
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "30", "--lambda-grid", f"{lam!r}",
                     "--out", str(out)]) == 0
        row = read_csv(out)[0]
        sat = solve_fixed_point(math.inf, 30, params).throughput
        assert float(row["s_model_mbps"]) == pytest.approx(sat, rel=0.02)
        assert row["regime"] == "saturated"

    @pytest.mark.parametrize("n, share, s_model", [
        (80, 0.80 + 35 * 0.005, 8.1906), (25, 1.0, 8.5761),
        (15, 1.0, 8.7708)])
    def test_api_prints_the_sweeps_root_in_the_band(self, params, tmp_path,
                                                    n, share, s_model):
        # Near lambda_c the residual can have three roots, and the API and
        # the sweep both keep the low one, to the digit the CSV prints.
        lam_pkt_s = share * critical_lambda(n, params).lambda_c * 1e6
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", str(n), "--lambda-grid",
                     f"{lam_pkt_s!r}", "--out", str(out)]) == 0
        row = read_csv(out)[0]
        api = solve_fixed_point(lam_pkt_s * 1e-6, n, params).throughput
        assert row["error"] == ""
        assert row["s_model_mbps"] == format(api, ".10g")
        assert api == pytest.approx(s_model, abs=5e-4)

    def test_auto_grid_covers_both_regimes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "10", "--out", str(out)]) == 0
        regimes = {r["regime"] for r in read_csv(out)}
        assert regimes == {"unsaturated", "saturated"}

    def test_tiny_rates_solve_on_the_linear_law(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "10", "--lambda-grid",
                     "0,1e-300,1e-306,1e-12", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 4
        for row in rows:
            assert row["error"] == ""
            assert row["s_model_mbps"] == row["s_linear_mbps"]

    def test_negative_zero_rate_writes_the_zero_row(self, capsys):
        # --lambda-grid=-0 is the rate 0: its row is byte for byte the row
        # of 0, with no "-0" in lambda_pkt_s or s_linear_mbps.
        lines = []
        for grid in ("-0", "0"):
            assert main(["sweep", "--n", "10", f"--lambda-grid={grid}"]) == 0
            lines.append(capsys.readouterr().out.splitlines())
        assert lines[0] == lines[1]
        assert lines[0][1].split(",")[1:4] == ["0", "0", "0"]

    def test_auto_grid_past_the_station_limit_exits_1(self, capsys):
        # Refused before the search: past 10**300 stations lambda_c nears
        # the bottom of the float range, and the line's slope N * E[PL] its
        # top.
        assert main(["sweep", "--n", str(10 ** 300 + 1),
                     "--lambda-grid", "auto"]) == 1
        assert "10**300" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("n", [10 ** 13, 10 ** 300])
    def test_auto_grid_up_to_the_station_limit_exits_0(self, tmp_path, n):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", str(n), "--lambda-grid", "auto",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 25
        assert all(row["error"] == "" for row in rows)
        assert float(rows[0]["s_max_mbps"]) == pytest.approx(8.325394,
                                                             abs=1e-5)

    def test_empty_grid_exits_1(self, capsys):
        assert main(["sweep", "--n", "10", "--lambda-grid", ","]) == 1
        assert assert_one_line_error(capsys) == (
            "error: lambda grid must not be empty\n")

    def test_linear_law_past_the_float_range_exits_1(self, params, tmp_path,
                                                     capsys):
        # 10**300 payload bits at 1e15 pkt/s: the linear law's value passes
        # the float range, and the message names the first such rate.
        pfile = write_params(tmp_path / "params.json", params,
                             {"payload_bits": 10 ** 300})
        assert main(["sweep", "--n", "1", "--lambda-grid", "30,1e15,1e16",
                     "--profile", pfile]) == 1
        assert assert_one_line_error(capsys) == (
            "error: the linear law's slope N * E[PL], or its value at lam "
            "1000000000.0, overflows the float range\n")

    @pytest.mark.parametrize("argv, searches, solves", [
        (["sweep", "--n", "3,7", "--lambda-grid", "auto"], 2, 50),
        (["compare", "--n", "3,7", "--lambda-grid", "30,70,400",
          "--replications", "1", "--duration-us", "2e4", "--warmup-us", "0"],
         2, 6),
    ])
    def test_one_search_per_network_and_one_solve_per_rate(
            self, monkeypatch, capsys, argv, searches, solves):
        # perfbench's tracer wraps these two names in dcfkit.cli and counts
        # its spans by them.
        calls = {}

        def count(name, fn):
            def counted(*args):
                calls[name] = calls.get(name, 0) + 1
                return fn(*args)
            monkeypatch.setattr(f"dcfkit.cli.{name}", counted)

        count("critical_lambda", critical_lambda)
        count("solve_fixed_point", solve_fixed_point)
        assert main(argv) in (0, 3)
        assert calls == {"critical_lambda": searches,
                         "solve_fixed_point": solves}
        # A repeat reads the kept row templates and still calls both names.
        assert main(argv) in (0, 3)
        assert calls == {"critical_lambda": 2 * searches,
                         "solve_fixed_point": 2 * solves}

    def test_auto_grid_rows_are_the_same_cold_and_warm(self, tmp_path):
        # Cold: neither the model's networks nor the row templates kept;
        # then the templates kept with the model cold, then both kept.
        def sweep(n):
            out = tmp_path / "sweep.csv"
            assert main(["sweep", "--n", str(n), "--lambda-grid", "auto",
                         "--out", str(out)]) == 0
            return out.read_bytes()

        try:
            for n in range(1, 101):
                _network.cache_clear()
                _rates.cache_clear()
                cold = sweep(n)
                _network.cache_clear()
                assert sweep(n) == cold, n
                assert sweep(n) == cold, n
        finally:
            _network.cache_clear()
            _rates.cache_clear()

    def test_explicit_grid_rows_are_the_same_cold_and_warm(
            self, tmp_path, monkeypatch, cold_model):
        fail_every_solve(monkeypatch)
        argv = ["sweep", "--n", "10,3", "--lambda-grid", "30,0,1e4"]
        written = []
        for _ in range(2):
            out = tmp_path / "sweep.csv"
            assert main([*argv, "--out", str(out)]) == 2
            written.append(out.read_bytes())
        assert written[0] == written[1]
        assert written[0].count(b"no convergence: ") == 6

    def test_typed_grids_keep_at_most_128_entries(self, cold_model):
        for i in range(200):
            assert main(["sweep", "--n", "5", "--lambda-grid",
                         f"{i + 1},400"]) == 0
        info = _rates.cache_info()
        assert info.currsize == info.maxsize == 128

    def test_long_typed_grids_are_not_kept(self, tmp_path, monkeypatch,
                                           cold_model):
        # A typed grid longer than the auto grid's 25 rates keeps no row
        # templates: 128 distinct grids of 1000 rates held about 33 MB
        # when they were kept. What stays is each argv's text, kept with
        # its parsed namespace. The templates are built before any solve,
        # so failing every solve keeps the test short.
        fail_every_solve(monkeypatch)
        out = str(tmp_path / "sweep.csv")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for i in range(128):
                grid = ",".join(f"{i + 1}.{k:03d}" for k in range(1000))
                assert main(["sweep", "--n", "5", "--lambda-grid", grid,
                             "--out", out]) == 2
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 2e6

    def test_auto_grid_pin_holds_after_typed_grids(self, tmp_path, capsys,
                                                   cold_model):
        # Typed grids of the pin's networks are kept first; the auto grid
        # still reads its own templates.
        for n in ("1", "10", "50"):
            assert main(["sweep", "--n", n, "--lambda-grid",
                         "20,60,400"]) == 0
        argv, code, _, csv_sha = _PINNED["sweep-auto"]
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == code
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_sha

    def test_unreadable_grid_exits_1(self, capsys):
        assert main(["sweep", "--n", "10", "--lambda-grid", "fast"]) == 1
        assert assert_one_line_error(capsys) == (
            "error: bad lambda grid: 'fast'\n")

    def test_negative_rate_exits_1(self, capsys, monkeypatch):
        # A rate that is negative or not finite is refused before any solve.
        def no_solve(lam, n, params):
            raise AssertionError("solved a refused grid")

        monkeypatch.setattr("dcfkit.cli.solve_fixed_point", no_solve)
        for grid in ("-5", "inf", "nan", "1e400", "20,-inf"):
            assert main(["sweep", "--n", "10", "--lambda-grid", grid]) == 1
            assert_one_line_error(capsys)

    def test_solver_failure_exits_2_and_records_error(self, tmp_path, capsys,
                                                      monkeypatch):
        def fail(lam, n, params):
            raise ConvergenceError("no sign change")

        monkeypatch.setattr("dcfkit.cli.solve_fixed_point", fail)
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--n", "10", "--lambda-grid", "50",
                     "--out", str(out)])
        assert code == 2
        row = read_csv(out)[0]
        assert row["error"] != ""
        assert row["s_model_mbps"] == ""
        # A failed search has no row to record it in: the command stops.
        def no_search(n, params):
            raise ConvergenceError("no sign change")

        monkeypatch.setattr("dcfkit.cli.critical_lambda", no_search)
        assert main(["table1", "--n", "10"]) == 2
        assert capsys.readouterr().err == "numeric error: no sign change\n"

    def test_compare_solver_failure_prints_reason(self, tmp_path, capsys,
                                                   monkeypatch):
        def fail(lam, n, params):
            raise ConvergenceError("no sign change")

        monkeypatch.setattr("dcfkit.cli.solve_fixed_point", fail)
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--n", "2", "--lambda-grid", "40",
                     "--replications", "1", "--duration-us", "1e5",
                     "--warmup-us", "0", "--out", str(out)]) == 2
        assert capsys.readouterr().out == (
            "ERROR n=2 lambda=40 pkt/s: no convergence: no sign change\n")
        row = read_csv(out)[0]
        assert (row["s_model_mbps"], row["band_mbps"],
                row["inside_band"]) == ("", "", "error")
        assert float(row["s_sim_mbps"]) > 0

    def test_with_sim_fills_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--n", "3", "--lambda-grid", "30",
                     "--with-sim", "--replications", "2",
                     "--duration-us", "300000", "--warmup-us", "30000",
                     "--seed", "5", "--out", str(out)])
        assert code == 0
        row = read_csv(out)[0]
        assert row["s_sim_mbps"] != ""
        assert float(row["s_sim_mbps"]) > 0

    def test_one_replication_leaves_ci_empty(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "2", "--lambda-grid", "40",
                     "--with-sim", "--replications", "1",
                     "--duration-us", "100000", "--warmup-us", "0",
                     "--out", str(out)]) == 0
        row = read_csv(out)[0]
        assert float(row["s_sim_mbps"]) > 0
        assert row["sim_ci95_mbps"] == ""

    def test_no_flag_leaks_into_the_next_call(self, tmp_path):
        # main reuses one parser per process; a second call must see none
        # of the first call's flags and must not rebuild it.
        _parser.cache_clear()
        _parse.cache_clear()
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        assert main(["sweep", "--n", "3", "--lambda-grid", "30",
                     "--with-sim", "--replications", "2",
                     "--duration-us", "100000", "--warmup-us", "10000",
                     "--out", str(first)]) == 0
        assert main(["sweep", "--n", "3", "--lambda-grid", "30",
                     "--out", str(second)]) == 0
        assert read_csv(first)[0]["s_sim_mbps"] != ""
        assert read_csv(second)[0]["s_sim_mbps"] == ""
        # An unknown command is read by the whole tree, the same parser.
        assert main(["no-such-command"]) == 1
        assert _parser.cache_info().misses == 1

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_replications_past_the_seed_stride_exit_1(self, command, capsys):
        # Point i runs seeds base_seed + 10000 * i + r: with 10001
        # replications, point 0's last seed is point 1's first. Refused
        # before any point runs, as every bad sim flag is.
        assert main([command, "--n", "2", "--lambda-grid", "30,40",
                     "--replications", "10001", "--duration-us", "2e3",
                     "--warmup-us", "0"]) == 1
        assert "--replications must be <= 10000" in assert_one_line_error(
            capsys)

    def test_replications_at_the_seed_stride_run(self):
        assert main(["sweep", "--n", "2", "--lambda-grid", "30,40",
                     "--replications", "10000"]) == 0


class TestCompare:
    def test_pass_at_light_load(self, params, tmp_path, capsys):
        report = critical_lambda(5, params)
        lam = 0.3 * report.lambda_c / 1e-6
        out = tmp_path / "cmp.csv"
        code = main(["compare", "--n", "5", "--lambda-grid", f"{lam!r}",
                     "--replications", "4", "--duration-us", "2000000",
                     "--warmup-us", "200000", "--seed", "11",
                     "--out", str(out)])
        assert code == 0
        row = read_csv(out)[0]
        assert row["inside_band"] == "yes"
        assert "PASS" in capsys.readouterr().out

    def test_one_replication_band_is_five_percent(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(["compare", "--n", "2", "--lambda-grid", "40",
                     "--replications", "1", "--duration-us", "100000",
                     "--warmup-us", "0", "--out", str(out)]) in (0, 3)
        row = read_csv(out)[0]
        assert row["sim_ci95_mbps"] == ""
        assert float(row["band_mbps"]) == pytest.approx(
            0.05 * float(row["s_sim_mbps"]), rel=1e-9)

    def test_rate_past_the_arrival_bound_exits_1(self, capsys):
        # 1.5e302 packets/us over 1e4 us: the simulator refuses the point
        # before it runs, which would never end.
        assert main(["compare", "--n", "100", "--lambda-grid", "1.5e308",
                     "--replications", "1", "--duration-us", "1e4",
                     "--warmup-us", "0"]) == 1
        err = assert_one_line_error(capsys)
        assert "lambda_per_station * sim_duration" in err


class TestSimCommand:
    def test_runs_and_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = main(["sim", "--n", "2", "--lambda", "40",
                     "--replications", "2", "--duration-us", "200000",
                     "--warmup-us", "20000", "--seed", "8",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2
        assert "throughput" in capsys.readouterr().out

    def test_arrival_time_past_the_float_range_exits_0(self, capsys):
        # 1e-306 pkt/s draws an inf arrival time at every station.
        assert main(["sim", "--n", "2", "--lambda", "1e-306",
                     "--replications", "1", "--duration-us", "1e5",
                     "--warmup-us", "0"]) == 0
        assert capsys.readouterr().out == (
            "throughput 0.0000 Mbps (one replication: no CI), "
            "0 successes, 0 collisions, 0 drops\n")

    def test_one_replication_prints_no_ci(self, capsys):
        assert main(["sim", "--n", "2", "--lambda", "40",
                     "--replications", "1", "--duration-us", "100000",
                     "--warmup-us", "0"]) == 0
        out = capsys.readouterr().out
        assert "(one replication: no CI)" in out
        assert "nan" not in out

    def test_trace_directory(self, tmp_path):
        trace = tmp_path / "traces"
        code = main(["sim", "--n", "2", "--lambda", "40",
                     "--replications", "2", "--duration-us", "100000",
                     "--warmup-us", "0", "--seed", "8",
                     "--trace", str(trace)])
        assert code == 0
        assert sorted(p.name for p in trace.iterdir()) == ["rep000.csv",
                                                           "rep001.csv"]

    def test_negative_lambda_exits_1(self, capsys):
        assert main(["sim", "--n", "2", "--lambda", "-4"]) == 1
        assert "lambda_per_station" in assert_one_line_error(capsys)

    def test_no_station_exits_1(self, capsys):
        assert main(["sim", "--n", "0", "--lambda", "4"]) == 1
        assert "n_stations must be >= 1" in assert_one_line_error(capsys)

    def test_infinite_duration_exits_1(self, capsys):
        assert main(["sim", "--n", "2", "--lambda", "40",
                     "--duration-us", "inf"]) == 1
        assert "sim_duration" in capsys.readouterr().err


class TestParameterFilesAndFlags:
    """A parameter file or a profile name goes to --profile; every other
    setting is a flag, and an unknown flag or file key exits 1."""

    def test_parameter_file_fields_reach_the_table(self, params, tmp_path):
        pfile = write_params(tmp_path / "params.json", params,
                             {"payload_bits": 4096, "queue_capacity_k": 10})
        out = tmp_path / "table.csv"
        assert main(["table1", "--n", "10", "--profile", pfile,
                     "--out", str(out)]) == 0
        row = read_csv(out)[0]
        lam_c = float(row["lambda_c_pkt_s"]) * 1e-6
        assert lam_c * 10 * 4096 == pytest.approx(float(row["s_max_mbps"]),
                                                  rel=1e-9)

    def test_params_file_as_profile(self, params, tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(dataclasses.asdict(params)))
        out = tmp_path / "table.csv"
        assert main(["table1", "--n", "10", "--profile", str(pfile),
                     "--out", str(out)]) == 0
        report = critical_lambda(10, params)
        row = read_csv(out)[0]
        assert float(row["s_max_mbps"]) == pytest.approx(report.s_max,
                                                         rel=1e-9)

    def test_config_flag_is_refused(self, tmp_path, capsys):
        # Flags are the only settings: --config is an unknown flag, even
        # with a valid file.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(
            {"profile": "dot11g-54", "params": {"mac_header_bits": 0}}))
        assert main(["table1", "--n", "10", "--config", str(config)]) == 1
        assert "--config" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("flags, file_data", [
        pytest.param([], {"retry_limit": 4}, id="params-unknown-key"),
        pytest.param(["--workers", "4"], None, id="unknown-sim-flag"),
        pytest.param(["--lamda-grid", "10"], None, id="misspelt-flag"),
        pytest.param([], [4], id="params-not-object"),
        pytest.param(["--damping", "0.5"], None, id="removed-damping-flag"),
        pytest.param([], {"ack_timeout": 364.0}, id="removed-ack-timeout"),
        pytest.param([], {"w_max": 1024}, id="removed-w-max"),
        pytest.param([], {"difs": 50.0}, id="removed-difs"),
        pytest.param([], {"phy_preamble_bits": 144, "plcp_header_bits": 48},
                     id="removed-preamble-and-header"),
    ])
    def test_unknown_flag_or_parameter_key_exits_1(self, params, tmp_path,
                                                   capsys, flags, file_data):
        # An unknown flag, or an unknown key in a parameter file.
        if file_data is not None:
            flags = ["--profile", write_params(tmp_path / "params.json",
                                               params, file_data)]
        assert main(["sweep", "--n", "10", "--lambda-grid", "50",
                     *flags]) == 1
        assert_one_line_error(capsys)

    def test_bad_warmup_flag_exits_1_without_simulation(self, capsys):
        # The warm-up passes the 5e6-us default duration.
        assert main(["sweep", "--n", "2", "--lambda-grid", "4",
                     "--warmup-us", "6e6"]) == 1
        assert "warmup" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("n_list, grid", [("2", "40"), ("2,10", "auto")])
    def test_model_only_sweep_builds_no_sim_settings(self, params, tmp_path,
                                                     capsys, n_list, grid):
        # With slot_sigma 1e-303 the default 5e6-us run spans more idle
        # slots than a float holds, so SimConfig refuses it; a sweep that
        # simulates nothing and is given no sim flag never builds one.
        tiny = dataclasses.replace(params, slot_sigma=1e-303)
        pfile = write_params(tmp_path / "params.json", tiny, {})
        argv = ["sweep", "--n", n_list, "--lambda-grid", grid,
                "--profile", pfile]
        out = tmp_path / "sweep.csv"
        assert main([*argv, "--out", str(out)]) == 0
        points = [(n, lam_pkt_s * 1e-6)
                  for n in map(int, n_list.split(","))
                  for lam_pkt_s in (_auto_grid(critical_lambda(n, tiny))
                                    if grid == "auto" else (float(grid),))]
        rows = read_csv(out)
        assert len(rows) == len(points)
        for row, (n, lam) in zip(rows, points):
            report = critical_lambda(n, tiny)
            assert (row["n"], row["error"]) == (str(n), "")
            assert (row["s_model_mbps"], row["s_linear_mbps"],
                    row["s_max_mbps"], row["regime"]) == (
                "%.10g" % solve_fixed_point(lam, n, tiny).throughput,
                "%.10g" % linear_throughput(lam, n, tiny),
                "%.10g" % report.s_max, report.regime_of(lam))
        # A given sim flag is still checked.
        assert main([*argv, "--seed", "3"]) == 1
        assert "slot_sigma" in assert_one_line_error(capsys)

    def test_grid_flag_replaces_the_auto_grid(self, tmp_path):
        # The flag replaces the default auto grid point for point.
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n", "10", "--lambda-grid", "20,30",
                     "--out", str(out)]) == 0
        rows = read_csv(out)
        assert [r["lambda_pkt_s"] for r in rows] == ["20", "30"]

    def test_malformed_parameter_file_exits_1(self, params, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text("{not json")
        assert main(["table1", "--profile", str(pfile)]) == 1
        assert_one_line_error(capsys)
        write_params(pfile, params, [dataclasses.asdict(params)])
        assert main(["table1", "--profile", str(pfile)]) == 1
        assert "must contain a JSON object" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("content", [b"not json", b"\xff{}"])
    def test_parameter_file_not_json_is_named(self, tmp_path, capsys,
                                              content):
        pfile = tmp_path / "params.json"
        pfile.write_bytes(content)
        assert main(["table1", "--profile", str(pfile)]) == 1
        assert f"'{pfile}'" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("overrides", [
        pytest.param({"w0": 32.5}, id="float-w0"),
        pytest.param({"queue_capacity_k": 2.5}, id="float-capacity"),
    ])
    def test_non_integer_param_exits_1(self, params, tmp_path, capsys,
                                       overrides):
        pfile = write_params(tmp_path / "params.json", params, overrides)
        assert main(["table1", "--n", "10", "--profile", pfile]) == 1
        field = next(iter(overrides))
        assert f"{field} must be an integer" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("overrides", [
        pytest.param({"sifs": math.nan}, id="nan-duration"),
        pytest.param({"data_rate": math.inf}, id="infinite-rate"),
    ])
    def test_non_finite_param_exits_1(self, params, tmp_path, capsys,
                                      overrides):
        # Python's json writes and reads these as NaN and Infinity.
        pfile = write_params(tmp_path / "params.json", params, overrides)
        assert main(["sweep", "--n", "2", "--lambda-grid", "40",
                     "--profile", pfile]) == 1
        assert_one_line_error(capsys)

    def test_param_past_float_range_exits_1(self, params, tmp_path, capsys):
        # json reads a long integer literal as an exact int.
        pfile = write_params(tmp_path / "params.json", params,
                             {"payload_bits": 10**400})
        assert main(["sweep", "--n", "2", "--lambda-grid", "40",
                     "--profile", pfile]) == 1
        assert_one_line_error(capsys)

    def test_infinite_occupancy_time_exits_1(self, params, tmp_path, capsys):
        # Every field is finite, but t_s is not: the sweep would print S 0.
        pfile = write_params(tmp_path / "params.json", params,
                             {"plcp_bits": 10**308})
        assert main(["sweep", "--n", "2", "--lambda-grid", "40",
                     "--profile", pfile]) == 1
        assert "t_s or t_c" in assert_one_line_error(capsys)

    @pytest.mark.parametrize("argv, overrides", [
        pytest.param(["table1", "--n", "10"], {"sifs": "10"},
                     id="params-float-as-string"),
        pytest.param(["table1", "--n", "10"], {"data_rate": True},
                     id="params-float-as-bool"),
        pytest.param(["sim", "--n", "2", "--lambda", "40",
                      "--duration-us", "1e5us"], None,
                     id="sim-float-as-string"),
        pytest.param(["sim", "--n", "2", "--lambda", "40",
                      "--warmup-us", "false"], None, id="sim-float-as-bool"),
        pytest.param(["sweep", "--n", "2", "--lambda-grid", "40",
                      "--with-sim", "false"], None,
                     id="with-simulation-as-string"),
        pytest.param(["sweep", "--n", "2", "--lambda-grid", "true"], None,
                     id="lambda-grid-bool-entry"),
        pytest.param(["sweep", "--n", "2", "--lambda-grid", "forty"], None,
                     id="lambda-grid-string-entry"),
        pytest.param(["table1", "--n", "10", "--profile", "0"], None,
                     id="profile-as-number"),
    ])
    def test_value_of_the_wrong_json_type_exits_1(self, params, tmp_path,
                                                  capsys, monkeypatch, argv,
                                                  overrides):
        # A value of the wrong type in a parameter file, or a flag value
        # that is not of the flag's type.
        monkeypatch.chdir(tmp_path)  # no file named like a bad profile
        if overrides is not None:
            argv = [*argv, "--profile",
                    write_params(tmp_path / "params.json", params, overrides)]
        assert main(argv) == 1
        assert_one_line_error(capsys)


class TestUserPaths:
    @pytest.mark.parametrize("argv", [
        pytest.param(["table1", "--n", "10", "--profile", "{dir}"],
                     id="profile-is-a-directory"),
        pytest.param(["table1", "--n", "10", "--out", "{dir}/missing/x.csv"],
                     id="out-in-a-missing-directory"),
        pytest.param(["sweep", "--n", "10", "--out", "{dir}"],
                     id="out-is-a-directory"),
        pytest.param(["sim", "--n", "2", "--lambda", "40", "--replications",
                      "1", "--duration-us", "1e5", "--warmup-us", "0",
                      "--trace", "{dir}/existing.csv"],
                     id="trace-is-a-file"),
    ])
    def test_os_error_exits_1(self, tmp_path, capsys, argv):
        (tmp_path / "existing.csv").write_text("")
        assert main([a.format(dir=tmp_path) for a in argv]) == 1
        assert_one_line_error(capsys)


def _outcome(parse, argv, capsys):
    """What parse makes of argv: the namespace, the error text, or the exit
    code and the help it printed."""
    try:
        return "namespace", vars(parse(argv))
    except ParameterError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, capsys.readouterr().out


class TestParse:
    @pytest.mark.parametrize("argv", [
        # a valid argv for each command
        ["table1", "--n", "10,20", "--profile", "dot11g-54", "--out", "t.csv"],
        ["sweep", "--n", "1,10", "--lambda-grid", "auto", "--with-sim",
         "--replications", "2", "--seed", "3", "--duration-us", "1e5",
         "--warmup-us", "0"],
        ["compare", "--n", "5", "--lambda-grid", "30,70", "--replications",
         "3"],
        ["sim", "--n", "2", "--lambda", "40", "--trace", "tr", "--out", "o"],
        ["sweep"],
        ["sweep", "--n=5"],
        ["sweep", "--n"],
        ["sweep", "--no-such-flag"],
        ["compare", "--replications", "x"],
        ["sim", "--n", "2", "--lam", "40"],
        ["sim", "--n", "2"],
        ["sweep", "--he"],
        ["sweep", "-h"],
        ["compare", "--help"],
        ["table1", "extra"],
        ["sweep", "--", "--n"],
        ["sweep", "--lambda-grid", "-5"],
        ["sweep", "--lambda-grid=-5,10"],
        ["sweep", "table1"],
        # no command word first
        [],
        ["-h"],
        ["--help"],
        ["--he"],
        ["no-such-command"],
        ["--", "sweep"],
        ["--n", "5", "sweep"],
    ], ids=lambda argv: " ".join(argv) or "no-words")
    def test_main_reads_argv_as_the_whole_tree(self, capsys, argv):
        # A miss, then a hit (or the same error or help again): both read
        # argv as the whole tree does.
        _parse.cache_clear()
        tree = _outcome(_parser().parse_args, argv, capsys)
        for _ in range(2):
            assert _outcome(_parse, tuple(argv), capsys) == tree
        assert _parse.cache_info().hits == (tree[0] == "namespace")

    @pytest.mark.parametrize("argv", [[], ["no-such-command"]],
                             ids=["no-words", "unknown-command"])
    def test_no_command_exits_1(self, capsys, argv):
        assert main(argv) == 1
        assert_one_line_error(capsys)

    def test_every_grid_flag_has_help(self):
        commands, = [action.choices for action in _parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
        flags = [(name, action)
                 for name in ("table1", "sweep", "compare")
                 for action in commands[name]._actions
                 if {"--n", "--lambda-grid"} & set(action.option_strings)]
        assert len(flags) == 5
        for name, action in flags:
            assert action.help, (name, action.option_strings)

    def test_help_lists_the_commands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        printed = capsys.readouterr().out
        for command in ("table1", "sweep", "compare", "sim"):
            assert f"    {command} " in printed


class TestParseCache:
    """main parses an argv once per process and keeps its namespace; a
    request only reads it, and an error or help is not kept."""

    def test_a_repeated_argv_is_a_hit_and_writes_the_same_bytes(
            self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--n", "7,30", "--lambda-grid", "auto",
                "--out", str(out)]
        _parse.cache_clear()
        written = []
        for _ in range(2):
            assert main(argv) == 0
            written.append(out.read_bytes())
        info = _parse.cache_info()
        assert (info.hits, info.misses) == (1, 1)
        assert written[0] == written[1]

    def test_an_edited_profile_file_is_read_again(self, params, tmp_path):
        pfile = tmp_path / "params.json"
        out = tmp_path / "table.csv"
        argv = ["table1", "--n", "10", "--profile", str(pfile),
                "--out", str(out)]
        for payload in (8000, 4096):
            write_params(pfile, params, {"payload_bits": payload})
            assert main(argv) == 0
            report = critical_lambda(
                10, dataclasses.replace(params, payload_bits=payload))
            assert float(read_csv(out)[0]["s_max_mbps"]) == pytest.approx(
                report.s_max, rel=1e-9)

    @pytest.mark.parametrize("argv", [
        ["sweep", "--no-such-flag"],
        ["sim", "--lambda", "4"],
        ["no-such-command"],
        ["sweep", "--n", "0"],
    ], ids=" ".join)
    def test_a_bad_argv_fails_on_every_call(self, capsys, argv):
        errors = []
        for _ in range(2):
            assert main(argv) == 1
            errors.append(assert_one_line_error(capsys))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("argv", [["-h"], ["sweep", "--help"]],
                             ids=" ".join)
    def test_help_prints_on_every_call(self, capsys, argv):
        printed = []
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            printed.append(capsys.readouterr().out)
        assert printed[0].startswith("usage: ")
        assert printed[0] == printed[1]

    def test_a_later_edit_of_the_callers_list_changes_nothing(
            self, tmp_path):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--n", "5", "--lambda-grid", "30,70",
                "--out", str(out)]
        given = list(argv)
        assert main(argv) == 0
        first = out.read_bytes()
        parsed = dict(vars(_parse(tuple(given))))
        argv[2] = "50"
        assert vars(_parse(tuple(given))) == parsed
        assert main(given) == 0
        assert out.read_bytes() == first
        assert main(argv) == 0
        assert out.read_bytes().count(b"\n50,") == 2

    @pytest.mark.parametrize("argv", [
        ["sweep", *_SWEEP_SIM, "--replications", "2"],
        ["compare", "--n", "2", "--lambda-grid", "40", "--replications",
         "2", "--duration-us", "1e5", "--warmup-us", "0"],
        ["sim", *_SIM, "--replications", "2"],
    ], ids=lambda argv: argv[0])
    def test_a_request_leaves_its_namespace_as_parsed(self, tmp_path,
                                                      argv):
        argv = (*argv, "--out", str(tmp_path / "out.csv"))
        args = _parse(argv)
        parsed = dict(vars(args))
        for _ in range(2):
            assert main(list(argv)) in (0, 3)
            assert _parse(argv) is args
            assert vars(args) == parsed


class TestEntryPoint:
    @pytest.mark.parametrize("n, code", [("10", 0), ("0", 1)])
    def test_module_run_exits_with_main_code(self, n, code):
        # entry() hands main's return code to sys.exit, which the console
        # script and python -m both end with.
        done = _run_python("-m", "dcfkit.cli", "table1", "--n", n,
                           check=False)
        assert done.returncode == code, done.stderr
        if code == 0:
            assert "  10       9.0682           110.5881" in (
                done.stdout.splitlines())
            assert done.stderr == ""
        else:
            assert done.stderr.startswith("error: ")
            assert done.stderr.count("\n") == 1, done.stderr
            assert "Traceback" not in done.stderr
