"""Smoke run of the benchmark's census workload from a fresh checkout root."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_census_workload_prints_its_pinned_digest():
    # At the default seed bench/run.py exits 1 with no metrics unless every
    # pass's outputs match the references and the pinned SHA-256, so a last
    # line reading correct with no failed request is the pinned census.
    result = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seconds", "0.1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0, last
