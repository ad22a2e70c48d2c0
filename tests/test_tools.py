"""The developer tools under tools/ run end to end on this tree."""

import os
import pathlib
import re
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
    assert lines[2] == ("parameters bit-identical after these network/sliced steps "
                        "(training.py: see ab_digest.py): yes")


def test_ab_digest_finds_a_tree_bit_identical_to_itself():
    """One quick seed: both benchmark variants are reported, every quantity
    matches, and the exit code says so."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_digest.py"), str(SRC), str(SRC),
         "--quick", "--seeds", "0"],
        capture_output=True, text=True, timeout=300,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:3] for line in lines[:2]] == [["seed", "0", "clean"],
                                                       ["seed", "0", "corrupted"]]
    for line in lines[:2]:
        assert line.split()[3:] == ["models", "yes", "step_records", "yes", "history",
                                    "yes", "dice", "yes", "bound", "yes"], line
    assert lines[2:] == ["all runs bit-identical: yes"]


def test_ab_digest_cli_finds_a_tree_byte_identical_to_itself():
    """gen, run, eval and sweep write the same files with one tree twice,
    apart from the reports' timestamps: a dataset, a run, an eval directory,
    a label-free pv eval directory, a run on two worker processes, a run
    extended by --add-source, the same label-free, a lambda sweep table and
    an L sweep table."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_digest.py"), str(SRC), str(SRC),
         "--cli", "--seeds", "0"],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert re.fullmatch(r"cli seed 0: \d+ files, 0 differ", lines[0]), lines
    # gen (with the manifest without one source), run, eval, the pv eval,
    # run, the grown run, the label-free grown run, the lambda sweep, the L sweep
    assert int(lines[0].split()[3]) >= 38 + 15 + 8 + 8 + 15 + 15 + 15 + 1 + 1, lines
    assert lines[1:] == ["all files identical: yes"]
