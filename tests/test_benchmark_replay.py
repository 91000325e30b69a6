"""The benchmark's null-homotopy smoke run: every witness, kill radius and
reduction trace it produces is replayed against perfbench/reference.py, which
does not import gpq, so this is a check independent of the library."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_null_homotopy_smoke_run_replays_every_answer():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke", "--workload", "null-homotopy"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0
