"""The README's demos run end to end: each exits 0 and prints its report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # the suite's warning policy: a numpy overflow or invalid value fails the demo
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "demos" / demo)],
                          env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
