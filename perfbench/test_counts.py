"""Counts reported by the traced benchmark repeat exactly.

Two traced runs of one workload, same seed and same environment, must
report equal solver iterations, fit solves, cloud points and report
bytes and files, so that later changes can cite these as counts.  Run
from the repository root with ``python3 -m pytest perfbench/test_counts.py``
(under a minute on two cores).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
COUNTS = ("solver.pcg_iters", "solver.fit_solves", "metrics.cloud_points",
          "io.bytes_written", "io.files_written")


def traced_run(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["sweep-trend", "fit-trend"])
def test_counts_repeat_exactly(workload):
    first, second = traced_run(workload), traced_run(workload)
    assert first["correct"] and second["correct"]
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
