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
import dataclasses
import functools
import json
import math
import numbers
import os
import sys
from dataclasses import dataclass

from .errors import ConvergenceError
from .model import solve_fixed_point
from .params import (PROFILES, PhyMacParams, _check_number_fields,
                     get_profile, load_params)
from .regime import RegimeReport, critical_lambda, linear_throughput
from .sim import SimConfig, run

_PKT_S_TO_PKT_US = 1e-6
_AUTO_GRID_POINTS = 25
_AUTO_GRID_SPAN = (0.01, 5.0)  # multiples of lambda_c
_CONFIG_KEYS = {"profile", "params", "lambda_grid", "with_simulation", "sim"}


class UsageError(Exception):
    """Bad flags, bad config file, or an inconsistent request."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise UsageError(message)


@dataclass(frozen=True)
class SimSettings:
    replications: int = 5
    base_seed: int = 12345
    duration_us: float = 5e6
    warmup_us: float = 5e5

    def __post_init__(self):
        # A sweep offsets base_seed per point before SimConfig sees it, and
        # True + 0 is the integer 1, so config values are checked here.
        _check_number_fields(self)


def _sim_config(params, n, lam, sim: SimSettings,
                base_seed: int) -> SimConfig:
    return SimConfig(n_stations=n, lambda_per_station=lam, params=params,
                     sim_duration=sim.duration_us, warmup=sim.warmup_us,
                     replications=sim.replications, base_seed=base_seed)


@dataclass(frozen=True)
class SweepSpec:
    """Resolved settings for sweep and compare runs."""

    params: PhyMacParams
    n_list: tuple[int, ...]
    lambda_grid: tuple[float, ...] | None  # pkt/s; None means auto per N
    with_simulation: bool
    sim: SimSettings


@dataclass(frozen=True)
class CurvePoint:
    n: int
    lambda_pkt_s: float
    s_model: float | None  # Mbps
    s_linear: float
    s_max: float
    regime: str
    s_sim: float | None = None
    sim_ci95: float | None = None
    error: str = ""


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dcfkit",
                     description="DCF throughput model, regimes and simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--profile", default=None,
                       help="built-in profile name or JSON parameter file "
                            "(default dot11g-54)")
        p.add_argument("--config", default=None,
                       help="JSON config file; flags override its values")
        p.add_argument("--out", default=None, help="write CSV here")

    def add_sim_flags(p):
        p.add_argument("--replications", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--duration-us", type=float, default=None)
        p.add_argument("--warmup-us", type=float, default=None)

    p_table = sub.add_parser("table1", help="S_m and lambda_c per network size")
    add_common(p_table)
    p_table.add_argument("--n", default="10,20,30",
                         help="comma-separated station counts")

    p_sweep = sub.add_parser("sweep", help="throughput curve over arrival rate")
    add_common(p_sweep)
    p_sweep.add_argument("--n", default="10,20,30")
    p_sweep.add_argument("--lambda-grid", default=None,
                         help="'auto' or comma-separated rates in pkt/s")
    p_sweep.add_argument("--with-sim", action="store_true", default=None)
    add_sim_flags(p_sweep)

    p_cmp = sub.add_parser("compare",
                           help="check the model against the simulator")
    add_common(p_cmp)
    p_cmp.add_argument("--n", default="10")
    p_cmp.add_argument("--lambda-grid", default=None)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # One parser per process, built on first use so that importing this
    # module builds nothing.
    return build_parser()


def _load_config(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise UsageError("config file must contain a JSON object")
    bad = set(data) - _CONFIG_KEYS
    if bad:
        raise UsageError(f"unknown keys in config: {sorted(bad)}")
    if not isinstance(data.get("profile", ""), str):
        raise UsageError("config 'profile' must be a string")
    if not isinstance(data.get("with_simulation", False), bool):
        raise UsageError("config 'with_simulation' must be true or false")
    return data


def _config_section(config, name, cls) -> dict:
    section = config.get(name, {})
    if not isinstance(section, dict):
        raise UsageError(f"config {name!r} must be an object")
    bad = set(section) - set(cls.__dataclass_fields__)
    if bad:
        raise UsageError(f"unknown keys in config {name!r}: {sorted(bad)}")
    return section


def _resolve_params(profile_flag, config) -> PhyMacParams:
    name = profile_flag or config.get("profile") or "dot11g-54"
    if name in PROFILES:
        base = get_profile(name)
    elif os.path.exists(name):
        base = load_params(name)
    else:
        raise UsageError(f"unknown profile or missing file: {name!r}")
    return dataclasses.replace(base,
                               **_config_section(config, "params", PhyMacParams))


def _resolve_sim(args, config) -> SimSettings:
    merged = dict(_config_section(config, "sim", SimSettings))
    for flag, key in (("replications", "replications"), ("seed", "base_seed"),
                      ("duration_us", "duration_us"), ("warmup_us", "warmup_us")):
        value = getattr(args, flag, None)
        if value is not None:
            merged[key] = value
    return SimSettings(**merged)


def _parse_n_list(text) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise UsageError(f"bad station count list: {text!r}") from exc
    if not values or any(v < 1 for v in values):
        raise UsageError(f"station counts must be positive: {text!r}")
    return values


def _parse_grid(text, config):
    if text is None:
        text = config.get("lambda_grid", "auto")
    if isinstance(text, (list, tuple)):
        if any(isinstance(v, bool) or not isinstance(v, numbers.Real)
               for v in text):
            raise UsageError(f"lambda grid entries must be numbers: {text!r}")
        values = tuple(float(v) for v in text)
    elif str(text).strip() == "auto":
        return None
    else:
        try:
            values = tuple(float(p) for p in str(text).split(",") if p.strip())
        except ValueError as exc:
            raise UsageError(f"bad lambda grid: {text!r}") from exc
    if not values:
        raise UsageError("lambda grid must not be empty")
    if any(v < 0 for v in values):
        raise UsageError("lambda grid entries must be >= 0")
    return values


def _auto_grid(report: RegimeReport) -> tuple[float, ...]:
    lo = _AUTO_GRID_SPAN[0] * report.lambda_c / _PKT_S_TO_PKT_US
    hi = _AUTO_GRID_SPAN[1] * report.lambda_c / _PKT_S_TO_PKT_US
    # Geometric spacing as numpy.geomspace builds it: a linear step in
    # log10 and exact end points. An inner point can differ from numpy's in
    # the last bit, where numpy takes vectorised log10 and pow.
    start = math.log10(lo)
    step = (math.log10(hi) - start) / (_AUTO_GRID_POINTS - 1)
    inner = [10.0 ** (i * step + start)
             for i in range(1, _AUTO_GRID_POINTS - 1)]
    return (lo, *inner, hi)


def _fmt(value) -> str:
    if value is None:
        return ""
    return format(value, ".10g")


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


def _sweep_points(spec: SweepSpec) -> list[CurvePoint]:
    points = []
    index = 0
    for n in spec.n_list:
        report = critical_lambda(n, spec.params)
        grid = spec.lambda_grid or _auto_grid(report)
        for lam_pkt_s in grid:
            lam = lam_pkt_s * _PKT_S_TO_PKT_US
            s_linear = linear_throughput(lam, n, spec.params)
            regime = report.regime_of(lam)
            s_model = None
            s_sim = None
            ci = None
            error = ""
            try:
                s_model = solve_fixed_point(lam, n, spec.params).throughput
            except ConvergenceError as exc:
                error = f"no convergence: {exc}"
            if spec.with_simulation:
                result = run(_sim_config(spec.params, n, lam, spec.sim,
                                         spec.sim.base_seed + 10_000 * index))
                s_sim = result.mean_throughput
                if spec.sim.replications > 1:  # one replication has no CI
                    ci = result.ci95_halfwidth
            points.append(CurvePoint(
                n=n, lambda_pkt_s=lam_pkt_s, s_model=s_model,
                s_linear=s_linear, s_max=report.s_max, regime=regime,
                s_sim=s_sim, sim_ci95=ci, error=error))
            index += 1
    return points


_SWEEP_HEADER = ("n", "lambda_pkt_s", "s_model_mbps", "s_linear_mbps",
                 "s_max_mbps", "regime", "s_sim_mbps", "sim_ci95_mbps",
                 "error")


def cmd_sweep(spec: SweepSpec, out=None) -> int:
    points = _sweep_points(spec)
    rows = [(p.n, _fmt(p.lambda_pkt_s), _fmt(p.s_model), _fmt(p.s_linear),
             _fmt(p.s_max), p.regime, _fmt(p.s_sim), _fmt(p.sim_ci95),
             p.error) for p in points]
    _write_csv(out, _SWEEP_HEADER, rows)
    return 2 if any(p.error for p in points) else 0


_COMPARE_HEADER = ("n", "lambda_pkt_s", "regime", "s_model_mbps",
                   "s_sim_mbps", "sim_ci95_mbps", "band_mbps", "inside_band")


def cmd_compare(spec: SweepSpec, out=None) -> int:
    """Model point inside sim CI widened by 5 percent of the sim mean."""
    points = _sweep_points(spec)
    rows = []
    failures = 0
    solver_failures = 0
    for p in points:
        if p.error or p.s_model is None:
            solver_failures += 1
            rows.append((p.n, _fmt(p.lambda_pkt_s), p.regime, "",
                         _fmt(p.s_sim), _fmt(p.sim_ci95), "", "error"))
            continue
        band = (p.sim_ci95 or 0.0) + 0.05 * p.s_sim
        inside = abs(p.s_model - p.s_sim) <= band
        if not inside:
            failures += 1
        rows.append((p.n, _fmt(p.lambda_pkt_s), p.regime, _fmt(p.s_model),
                     _fmt(p.s_sim), _fmt(p.sim_ci95), _fmt(band),
                     "yes" if inside else "no"))
        verdict = "PASS" if inside else "FAIL"
        print(f"{verdict} n={p.n} lambda={p.lambda_pkt_s:g} pkt/s "
              f"model={p.s_model:.4f} sim={p.s_sim:.4f} "
              f"band=+/-{band:.4f} Mbps")
    if out is not None:
        _write_csv(out, _COMPARE_HEADER, rows)
    if solver_failures:
        return 2
    return 3 if failures else 0


def cmd_sim(params, n, lam_pkt_s, sim: SimSettings, out=None,
            trace=None) -> int:
    result = run(_sim_config(params, n, lam_pkt_s * _PKT_S_TO_PKT_US, sim,
                             sim.base_seed), trace_dir=trace)
    ci = (f"95% CI +/- {result.ci95_halfwidth:.4f}"
          if sim.replications > 1 else "one replication: no CI")
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
        config = _load_config(args.config) if args.config else {}
        params = _resolve_params(args.profile, config)

        if args.command == "table1":
            return cmd_table1(params, _parse_n_list(args.n), out=args.out)

        if args.command == "sim":
            if args.n < 1:
                raise UsageError("--n must be >= 1")
            if args.lam < 0:
                raise UsageError("--lambda must be >= 0")
            return cmd_sim(params, args.n, args.lam,
                           _resolve_sim(args, config), out=args.out,
                           trace=args.trace)

        if args.command == "compare":
            if config.get("with_simulation") is False:
                raise UsageError(
                    "compare requires simulation; config sets "
                    "with_simulation=false")
            with_sim, cmd = True, cmd_compare
        else:
            with_sim, cmd = args.with_sim, cmd_sweep
            if with_sim is None:
                with_sim = config.get("with_simulation", False)
        spec = SweepSpec(params=params, n_list=_parse_n_list(args.n),
                         lambda_grid=_parse_grid(args.lambda_grid, config),
                         with_simulation=with_sim,
                         sim=_resolve_sim(args, config))
        return cmd(spec, out=args.out)
    # ParameterError is a ValueError; OSError covers the paths the user gave.
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 2


def entry():  # console-script hook
    sys.exit(main())


if __name__ == "__main__":
    entry()
