"""The example scripts under scripts/ run end to end on the public API."""
from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args",
    [
        ("discrete_pipeline.py", ["--n", "2000", "--boot", "50"]),
        ("linear_pipeline.py", ["--n", "2000", "--boot", "20"]),
    ],
)
def test_script_runs_and_reports_a_closed_sum(script, args):
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    gaps = re.findall(r"^sum gap .*= (\S+)$", done.stdout, flags=re.MULTILINE)
    assert gaps, done.stdout
    assert all(float(gap) <= 1e-9 for gap in gaps), gaps
