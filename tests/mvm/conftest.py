"""Fixtures for the analog MVM tests: the scalar pipeline oracle."""

import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "mvm_scalar_pipeline", Path(__file__).with_name("scalar_pipeline.py"))
_scalar_pipeline = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = _scalar_pipeline
_spec.loader.exec_module(_scalar_pipeline)


@pytest.fixture(scope="session")
def scalar_pipeline():
    """The per-read analog loop (``scalar_pipeline.py``)."""
    return _scalar_pipeline
