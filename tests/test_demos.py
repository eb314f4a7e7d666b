"""Each demo script runs to the end and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    # an empty glob would leave test_demo_runs with no case to fail
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr[-500:]
    assert result.stdout.strip()
