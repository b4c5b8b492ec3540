"""Fixtures for the rram_ap tests: the rescanning refinement oracle.

The per-symbol AP stepping oracle is the session fixture ``scalar_ap``
of ``tests/conftest.py``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "rram_ap_scan_refine", Path(__file__).with_name("scan_refine.py"))
_scan_refine = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = _scan_refine
_spec.loader.exec_module(_scan_refine)


@pytest.fixture(scope="session")
def scan_refine():
    """The rescanning ``refine_blocks`` (``scan_refine.py``)."""
    return _scan_refine
