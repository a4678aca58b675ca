"""The example scripts run from the repository root, as their usage lines say."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    proc = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_workflow_script():
    out = run_script("scripts/run_workflow.py")
    assert "achievability: pass" in out
    assert "all met: True" in out
    assert "violations=0" in out

