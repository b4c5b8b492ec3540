"""Unified public API: one facade over every engine in the reproduction.

The paper presents three computation-in-memory architectures (the
scouting-logic MVP, the RRAM automata processor, the analytical CPU+MVP
system model); this package serves all of them -- plus the batched
execution layer -- through a single declarative surface:

* **Registries** (:data:`ENGINES`, :data:`DEVICES`, :data:`WORKLOADS`,
  :data:`SCENARIOS`, :data:`FIGURES`) name every pluggable piece;
* **ScenarioSpec** declares a run (engine + device + workload + sizes +
  batch + seed) and round-trips through dicts/JSON.  Spec v2 nests two
  structured sub-specs -- :class:`DeviceSpec` (registry device plus
  parameter overrides) and
  :class:`~repro.crossbar.nonideal.NonidealitySpec` (stuck-at faults,
  conductance variability, wire IR drop, write-verify) -- while v1 flat
  specs still parse and all-default v2 specs keep their v1 canonical
  hash;
* **Engine.from_spec(spec).run()** executes any scenario and returns a
  **RunResult** -- one schema for outputs, SI cost totals (joules /
  seconds / mm^2), per-item batched costs, provenance, a
  **FidelitySummary** (bit-error rate, worst-case sense margin, verify
  retries) whenever nonidealities are active, and an
  **AccuracySummary** (task accuracy, float-reference agreement, ADC
  saturation) for the ``analog_mvm`` engine's workloads;
* the ``python -m repro`` CLI exposes the same facade from the shell;
* :mod:`repro.parallel` scales it out: ``ParallelRunner`` shards a
  batched spec across worker processes (bit-identical to ``workers=1``),
  ``SweepRunner`` fans spec grids, and ``ResultCache`` replays results
  by canonical spec hash.

Quickstart::

    from repro.api import ScenarioSpec, run

    result = run(ScenarioSpec(engine="rram_ap", workload="dna",
                              size=2000, items=8, batch=4))
    print(result.ok, result.cost.energy_joules)

The legacy entrypoints (``MVPProcessor`` on a crossbar or a stack,
``AutomataProcessor`` and ``GenericAPModel``, ``run_fig4_sweep``, the
figure drivers) remain public and are what the engines delegate to;
``tests/api/test_shims.py`` pins facade and legacy results to be
identical.
"""

from repro.api.devices import DeviceEntry, device_entry, energy_model_for
from repro.api.engines import Engine, run
from repro.api.figures import FigureEntry, run_figures
from repro.api.registry import (
    DEVICES,
    ENGINES,
    FIGURES,
    SCENARIOS,
    WORKLOADS,
    DuplicateNameError,
    Registry,
    RegistryError,
    UnknownNameError,
)
from repro.api.result import (
    AccuracySummary,
    CostSummary,
    FidelitySummary,
    RunResult,
    cost_from_mvp_stats,
    cost_from_run_cost,
    cost_from_system_point,
)
from repro.api.scenarios import scenario
from repro.api.spec import (
    DeviceSpec,
    NonidealitySpec,
    ScenarioSpec,
    SpecError,
)
from repro.api.workloads import ScenarioError, WorkloadAdapter, adapter_for

__all__ = [
    "AccuracySummary",
    "CostSummary",
    "DEVICES",
    "DeviceEntry",
    "DeviceSpec",
    "DuplicateNameError",
    "ENGINES",
    "Engine",
    "FIGURES",
    "FidelitySummary",
    "FigureEntry",
    "NonidealitySpec",
    "Registry",
    "RegistryError",
    "RunResult",
    "SCENARIOS",
    "ScenarioError",
    "ScenarioSpec",
    "SpecError",
    "UnknownNameError",
    "WORKLOADS",
    "WorkloadAdapter",
    "adapter_for",
    "cost_from_mvp_stats",
    "cost_from_run_cost",
    "cost_from_system_point",
    "device_entry",
    "energy_model_for",
    "run",
    "run_figures",
    "scenario",
]
