"""The benchmark's smoke runs: every answer they produce is checked against
perfbench/reference.py, which does not import gpq, so these are checks
independent of the library."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _smoke_run(workload):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke", "--workload", workload],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0 and result["attempted"] > 0


def test_null_homotopy_smoke_run_replays_every_answer():
    # witnesses, kill radii and reduction traces, replayed move by move
    _smoke_run("null-homotopy")


def test_grigorchuk_verify_smoke_run_checks_every_level():
    # the n <= 3 grid: all 96 identities close, each at the free, Klein or
    # dihedral level
    _smoke_run("grigorchuk-verify")


def test_ball_build_smoke_run_matches_every_model():
    # balls, spheres, loop generators and combings on Z^2, Z^3, F2, BS(1,2)
    # and D8, each checked against a model that does not use the backends
    _smoke_run("ball-build")


def test_presentation_calculus_smoke_run_replays_every_answer():
    # Tietze traces, decodes, pinch reductions, relator expansion, parse and
    # print against predicted end states and replayed traces
    _smoke_run("presentation-calculus")
