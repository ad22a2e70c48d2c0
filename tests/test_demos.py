"""The quick demos under demos/ run to completion on this tree. Demos 05
(the federated ensemble) and 06 (bound diagnostics) take several seconds
each and are run by hand."""

import os
import pathlib
import subprocess
import sys

import pytest

import fedseg

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = pathlib.Path(fedseg.__file__).resolve().parents[1]
QUICK = sorted(p.name for p in (ROOT / "demos").glob("0[1-4]_*.py"))


def test_the_quick_demos_are_found():
    assert [name[:2] for name in QUICK] == ["01", "02", "03", "04"]


@pytest.mark.parametrize("demo", QUICK)
def test_demo_exits_cleanly(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 0, done.stderr
    assert done.stdout
