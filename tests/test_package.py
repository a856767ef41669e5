"""The public surface of the package and the README's API sketch."""
import dataclasses
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
PYPROJECT = README.with_name("pyproject.toml")


def test_public_names():
    assert sorted(dcfkit.__all__) == [
        "ConvergenceError", "DerivedTimes", "FixedPointSolution",
        "ParameterError", "PhyMacParams", "RegimeReport", "ReplicationResult",
        "SimConfig", "SimResult", "__version__", "critical_lambda",
        "derive_times", "get_profile", "linear_throughput", "run_simulation",
        "solve_fixed_point",
    ]
    for name in dcfkit.__all__:
        assert hasattr(dcfkit, name), name


def test_readme_names_every_public_name():
    text = README.read_text()
    for name in dcfkit.__all__:
        if name != "__version__":
            assert re.search(rf"\b{name}\b", text), name


@pytest.mark.filterwarnings("ignore:Support for:UserWarning")
def test_version_has_one_source():
    # pyproject.toml reads the version from dcfkit.__version__ when the
    # package is built, so the two cannot disagree.
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    project = pyprojecttoml.read_configuration(PYPROJECT)["project"]
    assert "version" in project.get("dynamic", ())
    assert project["version"] == dcfkit.__version__


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


def test_per_solve_records():
    # perfbench traces FixedPointSolution.iterations; the field order is the
    # positional constructor's.
    assert [f.name for f in dataclasses.fields(dcfkit.FixedPointSolution)] == [
        "tau", "p", "t_i", "t_packet", "q", "throughput", "residual",
        "iterations",
    ]
    assert [f.name for f in dataclasses.fields(dcfkit.DerivedTimes)] == [
        "t_s", "t_c"]
    # A solve's record and the channel times are frozen, not slotted: an
    # assignment to a field or to a misspelt name raises AttributeError
    # (a frozen slotted class raises TypeError for the second on 3.10-3.13).
    params = dcfkit.get_profile("dot11g-54")
    solution = dcfkit.solve_fixed_point(30e-6, 10, params)
    for record, field in ((solution, "tau"),
                          (dcfkit.derive_times(params), "t_s")):
        for name in (field, "thruput"):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
        assert getattr(record, field) != 0.0
        assert not hasattr(record, "thruput")
        hash(record)


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
                  if m.split(".")[0] in ("numpy", "scipy", "statistics",
                                         "csv", "_csv"))

steps = {"import": heavy_modules()}
assert main(["sweep", "--n", "5", "--lambda-grid", "auto",
             "--out", sys.argv[1]]) == 0
steps["sweep"] = heavy_modules()
for reps in (1, 2, 3):
    run_simulation(SimConfig(n_stations=2, lambda_per_station=4e-5,
                             params=get_profile("dot11g-54"),
                             sim_duration=1e5, warmup=0.0,
                             replications=reps))
    steps[f"run-{reps}"] = heavy_modules()
print(json.dumps(steps))
"""


def _run_python(*args, check=True):
    """python with args, in a process that imports dcfkit from this tree."""
    src = str(Path(dcfkit.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, timeout=120,
                          capture_output=True, text=True, check=check)


def test_import_footprint(tmp_path):
    # scipy costs about a second to import and numpy about a tenth. The
    # model, a sweep and a run of any size need neither: the confidence
    # interval's Student-t quantile is computed in the package. statistics
    # brings fractions and decimal along for a mean that is fsum / len. The
    # CLI and the trace write their CSV as text, so csv is not loaded either.
    proc = _run_python("-c", _FOOTPRINT, str(tmp_path / "sweep.csv"))
    steps = json.loads(proc.stdout.splitlines()[-1])
    assert list(steps) == ["import", "sweep", "run-1", "run-2", "run-3"]
    for step, loaded in steps.items():
        assert loaded == [], step


_NO_JSON = """
import sys
import dcfkit
from dcfkit.cli import main

assert main(["sweep", "--n", "5", "--lambda-grid", "auto",
             "--out", sys.argv[1]]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] in ("json", "_json")))
"""


def test_json_is_loaded_only_for_a_parameter_file(tmp_path):
    # get_profile imports json in its file branch, so a profile name and
    # an auto sweep leave it unloaded. _FOOTPRINT imports json itself to
    # print its result, so this check runs in a process of its own.
    proc = _run_python("-c", _NO_JSON, str(tmp_path / "sweep.csv"))
    assert proc.stdout.splitlines()[-1] == "[]"


_BLOCKED = """
import json, sys
sys.modules["numpy"] = sys.modules["scipy"] = None  # any import fails
from dcfkit.cli import main
codes = [main(["sim", "--n", "10", "--lambda", "30", "--replications", "3",
               "--duration-us", "2e5", "--warmup-us", "0"]),
         main(["compare", "--n", "5", "--lambda-grid", "30",
               "--replications", "2", "--duration-us", "2e5",
               "--warmup-us", "0"])]
print(json.dumps(codes))
"""


def test_cli_runs_without_numpy_or_scipy():
    # An installation without the test extra has neither package.
    proc = _run_python("-c", _BLOCKED)
    assert "ImportError" not in proc.stderr
    sim_code, compare_code = json.loads(proc.stdout.splitlines()[-1])
    assert sim_code == 0
    assert compare_code in (0, 3)
