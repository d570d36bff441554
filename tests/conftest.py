"""Shared test setup: subprocess tests run ``python -m vacuumkit.cli`` and
import the package from the same place as the test process."""

import os
from pathlib import Path

import pytest

import vacuumkit


@pytest.fixture(autouse=True, scope="session")
def _package_on_subprocess_path():
    src = str(Path(vacuumkit.__file__).resolve().parents[1])
    paths = [src, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(paths))
        yield
