"""Each demo runs as a script against the package in src and prints its
report: a library change that breaks a demo fails here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_each_demo_runs_and_prints(demo):
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=600)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip()
