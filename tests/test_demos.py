"""Every demo script runs to completion against the library in ``src/`` and
prints, byte for byte, the transcript kept in ``tests/demo_stdout/``.

The transcripts pin what a reader of the demos sees.  A change that moves
a printed figure must update its transcript and list the change in
CHANGES.md.  Demo 04 prints the oracle's node count for certifying K4 x K3
and its K3 x K3 bounds, so a change that moves the oracle's node pins
there must update ``04_oracle_and_certificates.txt`` and list the change.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
TRANSCRIPTS = Path(__file__).resolve().parent / "demo_stdout"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (TRANSCRIPTS / f"{demo.stem}.txt").read_text()
