"""The benchmark's contract with the program (reads perfbench/ and
BENCHMARK.json only).

The traced reproduce run calls `pibench selftest` and the library's record
path in the benchmark's own process, so a change to either can break it
while every other test passes.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.skipif(not (ROOT / "perfbench").is_dir(), reason="perfbench/ is absent")
def test_traced_reproduce_ends_in_a_result():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "reproduce", "--trace", "1",
         "--seed", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
