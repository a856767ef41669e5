"""Cold start: import dcfkit and serve a workload's first request, then exit.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <work dir>

run.py times this script from start to exit in a fresh interpreter. The
exit code is 0 when the request succeeded and 1 otherwise.
"""
import sys
from pathlib import Path

from program import Program
from workloads import CurveRequest, first_requests


def main(workload: str, seed: int, work_dir: Path) -> int:
    program = Program(Path(__file__).resolve().parent.parent, work_dir)
    (req,) = first_requests(workload, seed, 1)
    _, fn, args = program.target(req)
    result = fn(*args)
    if isinstance(req, CurveRequest):
        return 0 if result == 0 else 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])))
