"""The bounded fixture: run a fail-fast case in a fresh interpreter whose address
space is capped, so that a regressed guard fails its own test instead of taking
the whole run down with it."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
LIMIT = 1 << 30  # bytes of address space; a child that imports the package peaks near 140 MB

_CHILD = """
import json, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))
exec(sys.argv[1])
t0 = time.perf_counter()
try:
    outcome = repr(eval(sys.argv[2]))
except BaseException as exc:
    outcome = type(exc).__name__
print(json.dumps({{"outcome": outcome, "seconds": time.perf_counter() - t0}}))
"""


def run_bounded(setup, expr, timeout=30.0):
    """Run setup, then evaluate expr, in sys.executable under a 1 GiB RLIMIT_AS.
    Returns (outcome, seconds, stderr): outcome is the name of the exception expr
    raised, else the repr of its value; seconds is measured inside the child
    around expr alone.  A child that outlives timeout fails the test."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _CHILD.format(limit=LIMIT), setup, expr],
                          env=env, capture_output=True, text=True, timeout=timeout)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    return result["outcome"], result["seconds"], done.stderr


@pytest.fixture
def bounded():
    return run_bounded
