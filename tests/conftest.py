"""Shared fixtures."""

import os
from pathlib import Path

import pytest

import chiral_casimir


@pytest.fixture
def package_env():
    """Environment for a child interpreter that imports this checkout's package."""
    src = str(Path(chiral_casimir.__file__).resolve().parent.parent)
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
