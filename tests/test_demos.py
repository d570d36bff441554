"""The narrative scripts under demos/ run cleanly.

Each script is copied into a temporary directory first, so demo 02's
eta_sweep.csv is written there and not into the checkout.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_without_errors(demo, tmp_path):
    script = Path(shutil.copy(demo, tmp_path))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
