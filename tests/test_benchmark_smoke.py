"""One-second runs of the benchmark workloads that bench/test_bench.py leaves
out: replay-embedded, and telemetry-mixed, the only place where one process
writes a day-long checkpoint and another process, a telemetry-serve, loads
it."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from conftest import TESTS_DIR

ROOT = TESTS_DIR.parent


@pytest.mark.parametrize("workload", ["replay-embedded", "telemetry-mixed"])
def test_a_one_second_run_is_correct(workload):
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, out.stderr
