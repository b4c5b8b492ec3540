"""Fixtures for the automata tests: the set-based compiler oracle.

The per-symbol AP stepping oracle, ``scalar_ap.py`` in this directory,
is the session fixture ``scalar_ap`` of ``tests/conftest.py``, shared
with the rram_ap tests.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "automata_set_compiler", Path(__file__).with_name("set_compiler.py"))
_set_compiler = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = _set_compiler
_spec.loader.exec_module(_set_compiler)


@pytest.fixture(scope="session")
def oracle():
    """The set-based compiler (``set_compiler.py``)."""
    return _set_compiler
