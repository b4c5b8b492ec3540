"""Fixtures for the MVP tests: the scalar ISA oracle."""

import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "mvp_scalar_isa", Path(__file__).with_name("scalar_isa.py"))
_scalar_isa = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = _scalar_isa
_spec.loader.exec_module(_scalar_isa)


@pytest.fixture(scope="session")
def scalar_isa():
    """The single-crossbar MVP processor (``scalar_isa.py``)."""
    return _scalar_isa
