"""The public surface of the package and the README's API sketch."""
import importlib
import re
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
