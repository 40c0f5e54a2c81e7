"""A one-second run of the decode benchmark: its teacher-forced decode
oracle, its determinism check and its heatmap checks must all pass."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_decode_bench_runs_with_every_check_passing():
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decode", "--seed", "1", "--seconds", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
