"""Smoke self-check of the benchmark, so that it cannot rot.

Runs all four workloads, untraced and traced, at tiny sizes with every
output check on and no timing assertion::

    python -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path


def test_smoke_run_is_correct():
    run = Path(__file__).with_name("run.py")
    done = subprocess.run(
        [sys.executable, str(run), "--smoke"], capture_output=True, text=True, timeout=600
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, done.stdout
    assert result["attempted"] > 0
