"""Fixtures for the automata tests: the set-based compiler oracle and
the per-symbol AP stepping oracle."""

import importlib.util
import sys
from pathlib import Path

import pytest


def _load(module_name: str, filename: str):
    spec = importlib.util.spec_from_file_location(
        module_name, Path(__file__).with_name(filename))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


_set_compiler = _load("automata_set_compiler", "set_compiler.py")
_scalar_ap = _load("automata_scalar_ap", "scalar_ap.py")


@pytest.fixture(scope="session")
def oracle():
    """The set-based compiler (``set_compiler.py``)."""
    return _set_compiler


@pytest.fixture(scope="session")
def scalar_ap():
    """The per-symbol AP loop (``scalar_ap.py``)."""
    return _scalar_ap
