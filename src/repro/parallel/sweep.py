"""Grid sweeps: fan a family of specs across the worker pool.

Where :class:`~repro.parallel.runner.ParallelRunner.run` splits *one*
batched scenario into shards, :class:`SweepRunner` takes the other axis
of scale-out -- many scenarios (a parameter grid: seeds x sizes x
devices x kernels ...) fanned whole across workers, each result
independently cacheable.  This is the grid-of-configurations evaluation
style of the CIM architecture literature: one declarative base spec,
axes varied combinatorially, every cell a reproducible
``ScenarioSpec -> RunResult`` run.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Any, Mapping, Sequence

from repro.api.spec import DeviceSpec, NonidealitySpec, ScenarioSpec, \
    SpecError
from repro.parallel.cache import ResultCache
from repro.parallel.runner import ParallelRunner
from repro.api.result import RunResult

__all__ = [
    "SPEC_FIELDS",
    "NONIDEALITY_FIELDS",
    "axis_value",
    "expand_grid",
    "SweepRunner",
]

#: Spec fields a sweep axis may target directly (all others are params).
SPEC_FIELDS = ("engine", "workload", "device", "size", "items",
               "batch", "seed")

#: Nonideality sub-spec fields addressable as sweep axes (spec v2).
NONIDEALITY_FIELDS = tuple(
    f.name for f in dataclasses.fields(NonidealitySpec))

#: Prefix addressing device-parameter overrides (``device.r_on=...``).
_DEVICE_AXIS_PREFIX = "device."


def axis_value(spec: ScenarioSpec, name: str) -> Any:
    """The value axis ``name`` takes in ``spec`` (for sweep reports).

    Resolves the same namespaces :func:`expand_grid` writes to: spec
    fields, nonideality fields, ``device.``-prefixed overrides, then
    params.
    """
    if name in SPEC_FIELDS:
        return getattr(spec, name)
    if name in NONIDEALITY_FIELDS:
        return getattr(spec.nonideality, name)
    if name.startswith(_DEVICE_AXIS_PREFIX):
        return spec.device.overrides[name[len(_DEVICE_AXIS_PREFIX):]]
    return spec.params[name]


def expand_grid(
    base: ScenarioSpec,
    axes: Mapping[str, Sequence[Any]],
) -> list[ScenarioSpec]:
    """The Cartesian product of ``axes`` applied over ``base``.

    Axis keys resolve through the spec's namespaces, most specific
    first:

    * a spec field (``size``, ``seed``, ``device`` ...) replaces that
      field;
    * a nonideality field (``fault_rate``, ``variability_sigma``,
      ``wire_resistance``, ``write_scheme`` ...) replaces that knob of
      ``spec.nonideality`` -- the robustness-sweep axes;
    * a ``device.``-prefixed key (``device.r_on``) sets a device
      parameter override;
    * any other key lands in ``spec.params``.

    Axes expand in the order given, last axis fastest -- the row order
    a nested-loop sweep would produce.

    Raises:
        SpecError: on an empty axis, or values a spec rejects.
    """
    for name, values in axes.items():
        if not values:
            raise SpecError(f"sweep axis {name!r} has no values")
    specs = []
    names = list(axes)
    for combo in itertools.product(*(axes[n] for n in names)):
        overrides: dict[str, Any] = {}
        params = dict(base.params)
        nonideal_changes: dict[str, Any] = {}
        device_name = base.device.name
        device_overrides = dict(base.device.overrides)
        for name, value in zip(names, combo):
            if name == "device":
                device_name = str(value)
            elif name in SPEC_FIELDS:
                overrides[name] = value
            elif name in NONIDEALITY_FIELDS:
                nonideal_changes[name] = value
            elif name.startswith(_DEVICE_AXIS_PREFIX):
                device_overrides[name[len(_DEVICE_AXIS_PREFIX):]] = value
            else:
                params[name] = value
        if params != dict(base.params):
            overrides["params"] = params
        if nonideal_changes:
            merged = {**base.nonideality.to_dict(), **nonideal_changes}
            # Dependent knobs normalize to their defaults in cells
            # where the enabling axis is off, so combinatorial grids
            # may include the off point of a primary axis (fault_rate=0
            # next to a stuck_at_one_fraction axis; "direct" next to a
            # verify_iterations axis) without tripping the latent-knob
            # validation -- in those cells the knob is inert anyway.
            if not (merged["fault_rate"] or merged["fault_count"]):
                merged["stuck_at_one_fraction"] = 0.5
            if merged["write_scheme"] != "verify":
                merged["verify_iterations"] = 10
            try:
                nonideality = NonidealitySpec.from_dict(merged)
            except ValueError as exc:
                raise SpecError(str(exc)) from None
            if nonideality != base.nonideality:
                overrides["nonideality"] = nonideality
        # The device axis and device.PARAM axes compose: sweeping the
        # name keeps the base spec's (and the grid's) overrides, so a
        # pinned window parameter stays pinned across devices.
        device = DeviceSpec(name=device_name, overrides=device_overrides)
        if device != base.device:
            overrides["device"] = device
        specs.append(base.replaced(**overrides) if overrides else base)
    return specs


class SweepRunner:
    """Run a grid of specs across workers, cache-aware, order-stable.

    Every call runs on one :class:`ParallelRunner`, so the worker pool
    the first grid starts stays warm for every later grid and stops
    when the sweep runner is dropped.

    Args:
        workers: worker process count for the spec-level fan-out.
        cache: a :class:`ResultCache`, a cache directory path, or None.
        pool: start method, as in :class:`ParallelRunner`.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: ResultCache | str | None = None,
        pool: str = "auto",
    ) -> None:
        self._runner = ParallelRunner(workers=workers, cache=cache,
                                      pool=pool)

    @property
    def cache(self) -> ResultCache | None:
        return self._runner.cache

    def run(
        self, specs: Sequence[ScenarioSpec | Mapping[str, Any]]
    ) -> list[RunResult]:
        """Execute every spec; results in input order."""
        return self._runner.run_many(specs)

    def run_grid(
        self,
        base: ScenarioSpec,
        axes: Mapping[str, Sequence[Any]],
    ) -> tuple[list[ScenarioSpec], list[RunResult]]:
        """Expand ``axes`` over ``base`` and run the grid.

        Returns:
            ``(specs, results)`` aligned index by index.
        """
        specs = expand_grid(base, axes)
        return specs, self.run(specs)
