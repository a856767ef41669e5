"""Command-line harness: reference table, curve sweeps, model-vs-sim checks.

Exit codes: 0 success, 1 usage or configuration error, 2 numeric failure
(no solution of the model's tau equation), 3 model-vs-simulation
comparison failure.

Arrival rates on the command line and in CSV output are packets per
second per station; throughput columns are Mbps. Internally everything
runs in microseconds.

Each CSV table is written as text: one "%"-formatted line per row, in
which every number is "%.10g" (the row templates and _fmt). Only the
sweep's error column holds free text; _cell quotes it. A file is written
as its UTF-8 bytes through os.open and os.write, with no buffered text
layer: created with mode 0o666 under the umask, as open(path, "w") does,
and truncated if it exists; stdout gets one write of the text.

A sweep row's cells other than the model's S, the sim cells and the error
depend only on the network and its rates. _rates keeps them as row
templates, one per rate, in an LRU cache of 128 entries keyed by (report,
params, grid), for the auto grid and a typed --lambda-grid of at most
_AUTO_GRID_POINTS rates, at about 260 bytes a rate: under 1 MB in all. A
longer grid's templates are built per request. critical_lambda still
runs once per network and solve_fixed_point once per rate on every request.

A command line is parsed once per process: _parse keeps each argv's
namespace in an LRU cache of 128 argv tuples. A usage error and help are
not kept, and the profile is read on every request.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import replace

from .model import ConvergenceError, solve_fixed_point
from .params import ParameterError, _check_n, _check_rate, get_profile
from .regime import RegimeReport, critical_lambda, linear_throughput
from .sim import SimConfig, run

_PKT_S_TO_PKT_US = 1e-6
_AUTO_GRID_POINTS = 25
_AUTO_GRID_SPAN = (0.01, 5.0)  # multiples of lambda_c
# Point i of a sweep runs seeds base_seed + _SEED_STRIDE * i + r for its
# replications r, so more replications than this would share seeds.
_SEED_STRIDE = 10_000
# os.open's flags for a CSV file: those of open(path, "w"), in binary.
_CREATE = os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ParameterError(message)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process, built on first use so that importing this
    # module builds nothing.
    parser = _Parser(prog="dcfkit",
                     description="DCF throughput model, regimes and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--profile", default="dot11g-54",
                       help="built-in profile name or JSON parameter file "
                            "(default dot11g-54)")
        p.add_argument("--out", default=None, help="write CSV here")

    def add_sim_flags(p):
        # Each dest is a SimConfig field; a flag left out is absent from the
        # parsed namespace, so the field keeps SimConfig's default.
        unset = argparse.SUPPRESS
        p.add_argument("--replications", type=int, default=unset)
        p.add_argument("--seed", dest="base_seed", metavar="SEED", type=int,
                       default=unset)
        p.add_argument("--duration-us", dest="sim_duration",
                       metavar="DURATION_US", type=float, default=unset)
        p.add_argument("--warmup-us", dest="warmup", metavar="WARMUP_US",
                       type=float, default=unset)

    def add_grid_flags(p, n_default):
        p.add_argument("--n", default=n_default,
                       help="comma-separated station counts")
        p.add_argument("--lambda-grid", default="auto",
                       help="'auto' or comma-separated rates in pkt/s")

    p_table = sub.add_parser("table1", help="S_m and lambda_c per network size")
    add_common(p_table)
    p_table.add_argument("--n", default="10,20,30",
                         help="comma-separated station counts")

    p_sweep = sub.add_parser("sweep", help="throughput curve over arrival rate")
    add_common(p_sweep)
    add_grid_flags(p_sweep, "10,20,30")
    p_sweep.add_argument("--with-sim", action="store_true")
    add_sim_flags(p_sweep)

    p_cmp = sub.add_parser("compare",
                           help="check the model against the simulator")
    add_common(p_cmp)
    add_grid_flags(p_cmp, "10")
    add_sim_flags(p_cmp)

    p_sim = sub.add_parser("sim", help="run the simulator at one point")
    add_common(p_sim)
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--lambda", dest="lam", type=float, required=True,
                       help="per-station arrival rate in pkt/s")
    p_sim.add_argument("--trace", default=None,
                       help="directory for per-replication event CSVs")
    add_sim_flags(p_sim)
    return parser


def _sim_flags(args) -> dict:
    """The sim flags given, by SimConfig field; a flag left out is absent,
    so its field keeps SimConfig's default."""
    fields = SimConfig.__dataclass_fields__
    return {k: v for k, v in vars(args).items() if k in fields}


def _parse_list(text, what, convert, check):
    """The comma-separated values of a --n or --lambda-grid flag, blank
    parts skipped, each as check returns it. Refuses a part convert cannot
    read, an empty list and a value check refuses; what names the list in
    the message."""
    try:
        values = tuple(convert(part) for part in text.split(",")
                       if part.strip())
    except ValueError as exc:
        raise ParameterError(f"bad {what}: {text!r}") from exc
    if not values:
        raise ParameterError(f"{what} must not be empty")
    return tuple(check(value) for value in values)


def _auto_grid(report: RegimeReport) -> tuple[float, ...]:
    lo = _AUTO_GRID_SPAN[0] * report.lambda_c / _PKT_S_TO_PKT_US
    hi = _AUTO_GRID_SPAN[1] * report.lambda_c / _PKT_S_TO_PKT_US
    last = _AUTO_GRID_POINTS - 1
    inner = [lo * (hi / lo) ** (i / last) for i in range(1, last)]
    return (lo, *inner, hi)


def _fmt(value) -> str:
    # A number that may be absent: an empty cell for no value. Every number
    # in a CSV has 10 significant digits, "%.10g", here and in the row
    # templates that format a value always present. "%" writes
    # format(value, ".10g")'s bytes at about half the cost. The rows are
    # read downstream: perfbench/checks.py takes the sweep's columns by
    # position.
    return "" if value is None else "%.10g" % value


def _cell(text: str) -> str:
    """A free-text CSV cell, quoted as Python 3.13's csv.writer quotes it:
    in double quotes, each inner one doubled, when it holds a quote, a
    comma or a line break; else as it is."""
    if '"' in text or "," in text or "\n" in text or "\r" in text:
        return '"%s"' % text.replace('"', '""')
    return text


def _write_csv(path, header, lines):
    """header's names, then lines, each a row ending in a newline: one
    write to stdout for path None, else path's UTF-8 bytes, os.write
    called until every byte is out."""
    text = ",".join(header) + "\n" + "".join(lines)
    if path is None:
        sys.stdout.write(text)
        return
    data = text.encode()
    fd = os.open(path, _CREATE, 0o666)
    try:
        while data:
            data = data[os.write(fd, data):]
    finally:
        os.close(fd)


def cmd_table1(params, n_list, out=None) -> int:
    rows = []
    for n in n_list:
        report = critical_lambda(n, params)
        rows.append((n, report.s_max, report.lambda_c / _PKT_S_TO_PKT_US))
    print(f"{'N':>4s} {'S_m (Mbps)':>12s} {'lambda_c (pkt/s)':>18s}")
    for n, s_max, lam_c in rows:
        print(f"{n:>4d} {s_max:>12.4f} {lam_c:>18.4f}")
    if out is not None:
        _write_csv(out, ("n", "s_max_mbps", "lambda_c_pkt_s"),
                   ["%d,%.10g,%.10g\n" % row for row in rows])
    return 0


@functools.lru_cache(maxsize=128)
def _rates(report, params, grid):
    """Each rate of grid (pkt/s; None for report's auto grid) as (lambda in
    pkt/s, in packets/us, the linear law's S, row template), kept for 128
    (report, params, grid) keys: the template is the sweep's row
    (_SWEEP_HEADER) with every cell filled but three "%s" slots, for the
    model's S, the two sim cells and the error. The linear law's slope
    N * E[PL] is found once; slope * lam is linear_throughput's value,
    inf where that raises, which _sweep_rows does."""
    n, s_max = report.n, report.s_max
    slope = linear_throughput(1.0, n, params)
    rates = []
    for lam_pkt_s in _auto_grid(report) if grid is None else grid:
        lam = lam_pkt_s * _PKT_S_TO_PKT_US
        s_linear = slope * lam
        rates.append((lam_pkt_s, lam, s_linear,
                      "%d,%.10g,%%s,%.10g,%.10g,%s,%%s,%%s\n" % (
                          n, lam_pkt_s, s_linear, s_max,
                          report.regime_of(lam))))
    return tuple(rates)


def _walk(params, n_list, grid, sim):
    """Each network's report and its points: one (rate, fixed point or
    None for a failed solve, error text, sim result) tuple per rate, rate
    as _rates gives it for grid (None: each N's auto grid); sim None means
    no simulation. Point i, counted over all N, runs with seed
    sim.base_seed + _SEED_STRIDE * i."""
    networks = []
    seed = None if sim is None else sim.base_seed
    # A long typed grid is not kept: its entry grows with its rates.
    rates = _rates if grid is None or len(grid) <= _AUTO_GRID_POINTS else (
        _rates.__wrapped__)
    for n in n_list:
        report = critical_lambda(n, params)
        points = []
        for rate in rates(report, params, grid):
            lam = rate[1]
            try:
                fixed_point, error = solve_fixed_point(lam, n, params), ""
            except ConvergenceError as exc:
                fixed_point, error = None, f"no convergence: {exc}"
            result = None
            if sim is not None:
                result = run(replace(sim, n_stations=n,
                                     lambda_per_station=lam, base_seed=seed))
                seed += _SEED_STRIDE
            points.append((rate, fixed_point, error, result))
        networks.append((report, points))
    return networks


_SWEEP_HEADER = ("n", "lambda_pkt_s", "s_model_mbps", "s_linear_mbps",
                 "s_max_mbps", "regime", "s_sim_mbps", "sim_ci95_mbps",
                 "error")
_COMPARE_HEADER = ("n", "lambda_pkt_s", "regime", "s_model_mbps",
                   "s_sim_mbps", "sim_ci95_mbps", "band_mbps", "inside_band")


def _sweep_rows(networks, params) -> list[str]:
    """The sweep's lines in _SWEEP_HEADER's order, each its rate's
    template filled. New columns go at the end: perfbench/checks.py reads
    these by position. A linear law past the float range raises here, as
    linear_throughput does for the first such rate."""
    rows = []
    for report, points in networks:
        for (_, lam, s_linear, template), fp, error, sim in points:
            if s_linear == math.inf:
                linear_throughput(lam, report.n, params)
            rows.append(template % (
                "" if fp is None else "%.10g" % fp.throughput,
                "," if sim is None else "%.10g,%s" % (
                    sim.mean_throughput, _fmt(sim.ci95_halfwidth)),
                _cell(error) if error else ""))
    return rows


def cmd_sweep(networks, params, out=None) -> int:
    _write_csv(out, _SWEEP_HEADER, _sweep_rows(networks, params))
    return 2 if any(fp is None for _, points in networks
                    for _, fp, _, _ in points) else 0


def cmd_compare(networks, out=None) -> int:
    """Check each model point against its simulated band, the sim CI
    widened by 5 percent of the sim mean: yes or no for the model inside
    it, error for a failed solve. One printed line and one CSV row
    (_COMPARE_HEADER's order) a point."""
    rows, verdicts = [], set()
    for report, points in networks:
        n = report.n
        for (lam_pkt_s, lam, _, _), fp, error, sim in points:
            mean, ci = sim.mean_throughput, sim.ci95_halfwidth
            band = (ci or 0.0) + 0.05 * mean
            if fp is None:
                verdict = "error"
                print(f"ERROR n={n} lambda={lam_pkt_s:g} pkt/s: {error}")
            else:
                verdict = "yes" if abs(fp.throughput - mean) <= band else "no"
                print(f"{'PASS' if verdict == 'yes' else 'FAIL'} n={n} "
                      f"lambda={lam_pkt_s:g} pkt/s "
                      f"model={fp.throughput:.4f} sim={mean:.4f} "
                      f"band=+/-{band:.4f} Mbps")
            verdicts.add(verdict)
            rows.append("%d,%.10g,%s,%s,%.10g,%s,%s,%s\n" % (
                n, lam_pkt_s, report.regime_of(lam),
                _fmt(None if fp is None else fp.throughput), mean, _fmt(ci),
                _fmt(None if fp is None else band), verdict))
    if out is not None:
        _write_csv(out, _COMPARE_HEADER, rows)
    if "error" in verdicts:
        return 2
    return 3 if "no" in verdicts else 0


def cmd_sim(sim: SimConfig, out=None, trace=None) -> int:
    result = run(sim, trace_dir=trace)
    ci = result.ci95_halfwidth
    ci = "one replication: no CI" if ci is None else f"95% CI +/- {ci:.4f}"
    print(f"throughput {result.mean_throughput:.4f} Mbps ({ci}), "
          f"{result.successes} successes, {result.collisions} collisions, "
          f"{result.drops} drops")
    if out is not None:
        _write_csv(out, ("replication", "throughput_mbps"),
                   ["%d,%.10g\n" % row
                    for row in enumerate(result.per_replication)])
    return 0


@functools.lru_cache(maxsize=128)
def _parse(argv: tuple[str, ...]):
    """argv's namespace, kept for 128 argv tuples. The namespace is shared
    by every call with the same argv, so callers only read it."""
    return _parser().parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(tuple(sys.argv[1:] if argv is None else argv))
        params = get_profile(args.profile)

        if args.command == "sim":
            sim = SimConfig(n_stations=args.n,
                            lambda_per_station=args.lam * _PKT_S_TO_PKT_US,
                            params=params, **_sim_flags(args))
            return cmd_sim(sim, out=args.out, trace=args.trace)

        n_list = _parse_list(args.n, "station count list", int,
                             lambda n: _check_n(n, "station count"))
        if args.command == "table1":
            return cmd_table1(params, n_list, out=args.out)

        grid = None if args.lambda_grid.strip() == "auto" else _parse_list(
            args.lambda_grid, "lambda grid", float,
            lambda lam: _check_rate(lam, "lambda grid entry", finite=True))
        with_sim = args.command == "compare" or args.with_sim
        flags = _sim_flags(args)
        sim = None
        if with_sim or flags:
            # A given sim flag is checked even when no simulation runs; each
            # run replaces the placeholder point (n 1, lambda 0).
            sim = SimConfig(n_stations=1, lambda_per_station=0.0,
                            params=params, **flags)
            if sim.replications > _SEED_STRIDE:
                raise ParameterError(
                    f"--replications must be <= {_SEED_STRIDE} on "
                    f"{args.command}: more would share seeds between points")
        networks = _walk(params, n_list, grid, sim if with_sim else None)
        if args.command == "compare":
            return cmd_compare(networks, out=args.out)
        return cmd_sweep(networks, params, out=args.out)
    # ParameterError is a ValueError; OSError covers the paths the user gave.
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
