"""Command-line harness: reference table, curve sweeps, model-vs-sim checks.

Exit codes: 0 success, 1 usage or configuration error, 2 numeric failure
(no solution of the model's tau equation), 3 model-vs-simulation
comparison failure.

Arrival rates on the command line and in CSV output are packets per
second per station; throughput columns are Mbps. Internally everything
runs in microseconds.
"""
from __future__ import annotations

import argparse
import csv
import functools
import sys
from dataclasses import dataclass, replace

from .model import ConvergenceError, FixedPointSolution, solve_fixed_point
from .params import ParameterError, _check_n, _check_rate, get_profile
from .regime import RegimeReport, critical_lambda, linear_throughput
from .sim import SimConfig, SimResult, run

_PKT_S_TO_PKT_US = 1e-6
_AUTO_GRID_POINTS = 25
_AUTO_GRID_SPAN = (0.01, 5.0)  # multiples of lambda_c
# Point i of a sweep runs seeds base_seed + _SEED_STRIDE * i + r for its
# replications r, so more replications than this would share seeds.
_SEED_STRIDE = 10_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise ParameterError(message)


@dataclass(slots=True)
class CurvePoint:
    lambda_pkt_s: float
    report: RegimeReport
    s_linear: float  # Mbps
    fixed_point: FixedPointSolution | None  # None: the solve failed, see error
    sim: SimResult | None  # None: simulation off
    error: str = ""


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

    p_table = sub.add_parser("table1", help="S_m and lambda_c per network size")
    add_common(p_table)
    p_table.add_argument("--n", default="10,20,30",
                         help="comma-separated station counts")

    p_sweep = sub.add_parser("sweep", help="throughput curve over arrival rate")
    add_common(p_sweep)
    p_sweep.add_argument("--n", default="10,20,30")
    p_sweep.add_argument("--lambda-grid", default="auto",
                         help="'auto' or comma-separated rates in pkt/s")
    p_sweep.add_argument("--with-sim", action="store_true")
    add_sim_flags(p_sweep)

    p_cmp = sub.add_parser("compare",
                           help="check the model against the simulator")
    add_common(p_cmp)
    p_cmp.add_argument("--n", default="10")
    p_cmp.add_argument("--lambda-grid", default="auto")
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


def _resolve_sim(args, params) -> SimConfig:
    """The sim flags over SimConfig's defaults.

    The point (n 1, lambda 0) is a placeholder each run replaces. SimConfig
    checks the settings here, before any point runs.
    """
    fields = SimConfig.__dataclass_fields__
    return SimConfig(n_stations=1, lambda_per_station=0.0, params=params,
                     **{k: v for k, v in vars(args).items() if k in fields})


def _parse_list(text, what, convert, check):
    """The comma-separated values of a --n or --lambda-grid flag, blank
    parts skipped. Refuses a part convert cannot read, an empty list and a
    value check refuses; what names the list in the message."""
    try:
        values = tuple(convert(part) for part in text.split(",")
                       if part.strip())
    except ValueError as exc:
        raise ParameterError(f"bad {what}: {text!r}") from exc
    if not values:
        raise ParameterError(f"{what} must not be empty")
    for value in values:
        check(value)
    return values


def _auto_grid(report: RegimeReport) -> tuple[float, ...]:
    lo = _AUTO_GRID_SPAN[0] * report.lambda_c / _PKT_S_TO_PKT_US
    hi = _AUTO_GRID_SPAN[1] * report.lambda_c / _PKT_S_TO_PKT_US
    last = _AUTO_GRID_POINTS - 1
    inner = [lo * (hi / lo) ** (i / last) for i in range(1, last)]
    return (lo, *inner, hi)


def _fmt(value) -> str:
    # Every number in a CSV: 10 significant digits, an empty cell for no
    # value. "%" writes format(value, ".10g")'s bytes at about half the
    # cost. The rows are read downstream: perfbench/checks.py takes the
    # sweep's columns by position.
    return "" if value is None else "%.10g" % value


def _write_csv(path, header, rows):
    out = sys.stdout if path is None else open(path, "w", encoding="utf-8",
                                               newline="")
    try:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if path is not None:
            out.close()


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
                   [(r[0], _fmt(r[1]), _fmt(r[2])) for r in rows])
    return 0


def _sweep_points(params, n_list, grid, sim) -> list[CurvePoint]:
    """grid None means each N's auto grid; sim None means no simulation."""
    points = []
    for n in n_list:
        report = critical_lambda(n, params)
        for lam_pkt_s in grid or _auto_grid(report):
            lam = lam_pkt_s * _PKT_S_TO_PKT_US
            fixed_point, error = None, ""
            try:
                fixed_point = solve_fixed_point(lam, n, params)
            except ConvergenceError as exc:
                error = f"no convergence: {exc}"
            result = None if sim is None else run(replace(
                sim, n_stations=n, lambda_per_station=lam,
                base_seed=sim.base_seed + _SEED_STRIDE * len(points)))
            points.append(CurvePoint(
                lambda_pkt_s=lam_pkt_s, report=report,
                s_linear=linear_throughput(lam, n, params),
                fixed_point=fixed_point, sim=result, error=error))
    return points


def _band(p: CurvePoint) -> float:
    """compare's tolerance: the sim CI widened by 5 percent of the sim mean."""
    return (p.sim.ci95_halfwidth or 0.0) + 0.05 * p.sim.mean_throughput


def _verdict(p: CurvePoint) -> str:
    """compare's verdict: the model inside the band (yes/no), or error."""
    if p.error:
        return "error"
    inside = abs(p.fixed_point.throughput - p.sim.mean_throughput) <= _band(p)
    return "yes" if inside else "no"


_SWEEP_HEADER = ("n", "lambda_pkt_s", "s_model_mbps", "s_linear_mbps",
                 "s_max_mbps", "regime", "s_sim_mbps", "sim_ci95_mbps",
                 "error")
_COMPARE_HEADER = ("n", "lambda_pkt_s", "regime", "s_model_mbps",
                   "s_sim_mbps", "sim_ci95_mbps", "band_mbps", "inside_band")


def _sweep_rows(points: list[CurvePoint]) -> list[tuple]:
    """The sweep's rows in _SWEEP_HEADER's order. New columns go at the end:
    perfbench/checks.py reads these by position. A network's points share
    its report, so its n and S_m are formatted once."""
    rows, report = [], None
    for p in points:
        if p.report is not report:
            report = p.report
            n, s_max = report.n, _fmt(report.s_max)
        fp, sim = p.fixed_point, p.sim
        s_sim, ci = ("", "") if sim is None else (
            _fmt(sim.mean_throughput), _fmt(sim.ci95_halfwidth))
        rows.append((n, _fmt(p.lambda_pkt_s),
                     "" if fp is None else _fmt(fp.throughput),
                     _fmt(p.s_linear), s_max,
                     report.regime_of(p.lambda_pkt_s * _PKT_S_TO_PKT_US),
                     s_sim, ci, p.error))
    return rows


def _compare_rows(points: list[CurvePoint], verdicts) -> list[tuple]:
    """compare's rows in _COMPARE_HEADER's order; every point has a sim."""
    return [(p.report.n, _fmt(p.lambda_pkt_s),
             p.report.regime_of(p.lambda_pkt_s * _PKT_S_TO_PKT_US),
             "" if p.error else _fmt(p.fixed_point.throughput),
             _fmt(p.sim.mean_throughput), _fmt(p.sim.ci95_halfwidth),
             "" if p.error else _fmt(_band(p)), verdict)
            for p, verdict in zip(points, verdicts)]


def cmd_sweep(points: list[CurvePoint], out=None) -> int:
    _write_csv(out, _SWEEP_HEADER, _sweep_rows(points))
    return 2 if any(p.error for p in points) else 0


def cmd_compare(points: list[CurvePoint], out=None) -> int:
    """Check each model point against its simulated band (see _band)."""
    verdicts = [_verdict(p) for p in points]
    for p, verdict in zip(points, verdicts):
        if verdict == "error":
            print(f"ERROR n={p.report.n} lambda={p.lambda_pkt_s:g} pkt/s: "
                  f"{p.error}")
            continue
        print(f"{'PASS' if verdict == 'yes' else 'FAIL'} n={p.report.n} "
              f"lambda={p.lambda_pkt_s:g} pkt/s "
              f"model={p.fixed_point.throughput:.4f} "
              f"sim={p.sim.mean_throughput:.4f} "
              f"band=+/-{_band(p):.4f} Mbps")
    if out is not None:
        _write_csv(out, _COMPARE_HEADER, _compare_rows(points, verdicts))
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
        rows = [(i, _fmt(t)) for i, t in enumerate(result.per_replication)]
        _write_csv(out, ("replication", "throughput_mbps"), rows)
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        params = get_profile(args.profile)

        if args.command == "sim":
            sim = replace(_resolve_sim(args, params),
                          n_stations=args.n,
                          lambda_per_station=args.lam * _PKT_S_TO_PKT_US)
            return cmd_sim(sim, out=args.out, trace=args.trace)

        n_list = _parse_list(args.n, "station count list", int,
                             lambda n: _check_n(n, "station count"))
        if args.command == "table1":
            return cmd_table1(params, n_list, out=args.out)

        if args.command == "compare":
            with_sim, cmd = True, cmd_compare
        else:
            with_sim, cmd = args.with_sim, cmd_sweep
        grid = None if args.lambda_grid.strip() == "auto" else _parse_list(
            args.lambda_grid, "lambda grid", float,
            lambda lam: _check_rate(lam, "lambda grid entry", finite=True))
        # A bad sim flag exits 1 even when no simulation runs.
        sim = _resolve_sim(args, params)
        if sim.replications > _SEED_STRIDE:
            raise ParameterError(f"--replications must be <= {_SEED_STRIDE} "
                                 f"on {args.command}: more would share seeds "
                                 f"between points")
        return cmd(_sweep_points(params, n_list, grid,
                                 sim if with_sim else None), out=args.out)
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
