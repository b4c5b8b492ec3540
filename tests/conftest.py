"""Test-suite configuration: deterministic property-based testing.

Hypothesis is derandomized so the suite gives identical verdicts on every
run (important for an offline reproduction repo: a red test means a real
regression, never sampling noise).

The per-symbol AP stepping oracle (``automata/scalar_ap.py``) is loaded
here, as the ``scalar_ap`` fixture, because both the automata and the
rram_ap suites check the one stepping kernel against it.  So is the
``two_cpus`` fixture, which the parallel and obs suites' process-pool
tests share.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "repro",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")

_spec = importlib.util.spec_from_file_location(
    "automata_scalar_ap",
    Path(__file__).parent / "automata" / "scalar_ap.py")
_scalar_ap = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = _scalar_ap
_spec.loader.exec_module(_scalar_ap)


@pytest.fixture(scope="session")
def scalar_ap():
    """The per-symbol AP loop (``automata/scalar_ap.py``)."""
    return _scalar_ap


@pytest.fixture
def two_cpus(monkeypatch):
    """Runners see two CPUs, whatever the host has.

    A :class:`~repro.parallel.ParallelRunner` never fans out wider than
    the CPUs it may run on, and on one CPU it runs in-process.  Tests
    that exist to drive its process pool with ``workers=2`` use this
    fixture, so that they fork two workers on a one-CPU host too.
    """
    monkeypatch.setattr("repro.parallel.runner.available_cpus", lambda: 2)
