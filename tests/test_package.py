"""The public surface of the package and the README's API sketch."""
import re
from pathlib import Path

import dcfkit

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names():
    assert sorted(dcfkit.__all__) == [
        "ConvergenceError", "DerivedTimes", "FixedPointSolution", "PROFILES",
        "ParameterError", "PhyMacParams", "RegimeReport", "ReplicationResult",
        "SimConfig", "SimResult", "__version__", "access_and_service_time",
        "critical_lambda", "derive_times", "get_profile", "idle_slot_time",
        "linear_throughput", "load_params", "max_throughput",
        "queue_empty_probability", "run_replication", "run_simulation",
        "solve_fixed_point", "solve_saturated", "throughput_tau_form",
    ]
    for name in dcfkit.__all__:
        assert hasattr(dcfkit, name), name


def test_readme_api_sketch_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out
