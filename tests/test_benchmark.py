"""The benchmark's contract with the program (reads perfbench/ and
BENCHMARK.json only).

The traced runs call `pibench selftest`, the library's record path and,
for long-schedule, a split run in the benchmark's own process, so a change
to any of them can break a run while every other test passes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(not (ROOT / "perfbench").is_dir(), reason="perfbench/ is absent")
@pytest.mark.parametrize("workload", ["reproduce", "hiprec-dense", "long-schedule"])
def test_traced_run_ends_in_a_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1",
         "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
