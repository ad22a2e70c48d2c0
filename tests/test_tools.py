"""The developer tools under tools/ run end to end on this tree."""

import os
import pathlib
import subprocess
import sys

import fedseg

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(fedseg.__file__).resolve().parents[1]


def test_ab_steps_runs_a_tree_against_itself():
    """Two tiny blocks per side; the timings are not checked, only that both
    step kinds are reported and that one tree stays bit-identical to itself."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_steps.py"), str(SRC), str(SRC),
         "--pairs", "2", "--steps", "1", "--size", "16"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["pretrain", "adapt", "parameters"]
    assert all("ms/step" in line and line.endswith("/2 pairs") for line in lines[:2])
    assert lines[2] == "parameters bit-identical after the run: yes"
