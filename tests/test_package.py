"""The public surface of the package and the README's API sketch."""
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import dcfkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names():
    assert sorted(dcfkit.__all__) == [
        "ConvergenceError", "DerivedTimes", "FixedPointSolution", "PROFILES",
        "ParameterError", "PhyMacParams", "RegimeReport", "ReplicationResult",
        "SimConfig", "SimResult", "__version__", "critical_lambda",
        "derive_times", "get_profile", "linear_throughput", "load_params",
        "max_throughput", "queue_empty_probability", "run_replication",
        "run_simulation", "solve_fixed_point", "solve_saturated",
        "throughput_tau_form",
    ]
    for name in dcfkit.__all__:
        assert hasattr(dcfkit, name), name


@pytest.mark.parametrize("module, attr", [
    ("dcfkit.cli", "critical_lambda"),
    ("dcfkit.cli", "solve_fixed_point"),
    ("dcfkit.regime", "max_throughput"),
    ("dcfkit.regime", "derive_times"),
    ("dcfkit.model", "derive_times"),
    ("dcfkit.sim", "derive_times"),
    ("dcfkit.sim", "run_replication"),
])
def test_traced_names_are_module_attributes(module, attr):
    # perfbench's tracer swaps these attributes for timed wrappers; the
    # callers must look them up there for the spans to see their calls.
    assert callable(getattr(importlib.import_module(module), attr))


def test_readme_api_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out


_FOOTPRINT = """
import json, sys
from dcfkit import SimConfig, get_profile, run_simulation
from dcfkit.cli import main

def heavy_modules():
    return sorted(m for m in sys.modules
                  if m.split(".")[0] in ("numpy", "scipy"))

steps = {"import": heavy_modules()}
assert main(["sweep", "--n", "5", "--lambda-grid", "auto",
             "--out", sys.argv[1]]) == 0
steps["sweep"] = heavy_modules()
for reps in (1, 2):
    run_simulation(SimConfig(n_stations=2, lambda_per_station=4e-5,
                             params=get_profile("dot11g-54"),
                             sim_duration=1e5, warmup=0.0,
                             replications=reps))
    steps[f"run-{reps}"] = heavy_modules()
print(json.dumps(steps))
"""


def test_import_footprint(tmp_path):
    # scipy costs about a second to import and numpy about a tenth. The
    # model, a sweep and a single replication need neither; only the
    # confidence interval of two or more replications loads scipy.special
    # (and numpy with it), for one Student-t quantile.
    src = str(Path(dcfkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, str(tmp_path / "sweep.csv")],
        env=env, capture_output=True, text=True, check=True)
    steps = json.loads(proc.stdout.splitlines()[-1])
    for step in ("import", "sweep", "run-1"):
        assert steps[step] == [], step
    loaded = steps["run-2"]
    assert "scipy.special" in loaded
    assert not [m for m in loaded
                if m.startswith(("scipy.stats", "scipy.optimize"))], loaded
