"""Fixtures shared by the test files."""

import os
from pathlib import Path

import pytest

import lincong


@pytest.fixture
def cli_env():
    """Environment for a child ``python -m lincong.cli``: the source
    directory of the imported package leads its PYTHONPATH, so the child
    runs the code under test whether or not the caller set PYTHONPATH."""
    src = str(Path(lincong.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
