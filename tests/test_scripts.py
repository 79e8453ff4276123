"""Smoke runs of the scripts under scripts/, each in a fresh subprocess.

The scripts import the package the way a user would, so a deleted or
renamed public name breaks them without breaking any other test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["rank_gap_demo.py"],
        ["success_vs_m.py", "--m-max", "3", "--trials", "20"],
        ["bench_trials.py", "--sweeps", "1", "--trials", "1", "--repeats", "1", "--out", os.devnull],
        ["bench_attack.py", "--queries", "2", "--stacks", "1", "--repeats", "1", "--out", os.devnull],
        ["bench_products.py", "--calls", "1", "--queries", "1", "--repeats", "1", "--out", os.devnull],
        ["bench_echelon.py", "--calls", "1", "--queries", "1", "--repeats", "1", "--out", os.devnull],
    ],
    ids=lambda argv: argv[0],
)
def test_script_runs(argv):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    assert proc.stdout
