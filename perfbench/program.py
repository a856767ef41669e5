"""The dcfkit package under test and the calls the benchmark makes into it."""
from __future__ import annotations

import importlib
import sys
from pathlib import Path

from workloads import CurveRequest, SimRequest

PROFILE = "dot11g-54"


class Program:
    """dcfkit imported from the checkout's src/ tree."""

    def __init__(self, root: Path, work_dir: Path):
        src = (root / "src").resolve()
        sys.path.insert(0, str(src))
        dcfkit = importlib.import_module("dcfkit")
        where = Path(dcfkit.__file__).resolve().parent
        if where != src / "dcfkit":
            raise ImportError(f"dcfkit imported from {where}, not from {src}")
        self.dcfkit = dcfkit
        self.cli = importlib.import_module("dcfkit.cli")
        self.sim = importlib.import_module("dcfkit.sim")
        self.params = dcfkit.get_profile(PROFILE)
        self.csv_path = str(work_dir / "sweep.csv")

    def sim_config(self, req: SimRequest):
        return self.dcfkit.SimConfig(
            n_stations=req.n, lambda_per_station=req.lambda_pkt_s * 1e-6,
            params=self.params, sim_duration=req.duration_us,
            warmup=req.warmup_us, replications=req.replications,
            base_seed=req.base_seed)

    def target(self, req):
        """(span name, function, arguments) that serve one request."""
        if isinstance(req, CurveRequest):
            return "cli.main", self.cli.main, (req.argv(self.csv_path),)
        return "sim.run", self.sim.run, (self.sim_config(req),)

    def trace_targets(self):
        """(module, attribute, span name, note) for every traced boundary.

        Each attribute is the name a caller looks up, so wrapping it sees the
        calls that caller makes.
        """
        regime = importlib.import_module("dcfkit.regime")
        model = importlib.import_module("dcfkit.model")
        return [
            (self.cli, "critical_lambda", "regime.critical_lambda", None),
            (self.cli, "solve_fixed_point", "model.solve_fixed_point",
             lambda sol: sol.iterations),
            (regime, "max_throughput", "regime.max_throughput", None),
            (regime, "derive_times", "params.derive_times", None),
            (model, "derive_times", "params.derive_times", None),
            (self.sim, "derive_times", "params.derive_times", None),
            (self.sim, "run_replication", "sim.run_replication",
             lambda rep: rep),
        ]
