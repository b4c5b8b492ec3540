"""Declarative scenario descriptions: what to run, on what, how big.

A :class:`ScenarioSpec` names one engine, one device and one workload
from the registries, plus the scenario's sizes (problem size, item
count, batch width) and the RNG seed.  Specs are plain data: they
round-trip losslessly through :meth:`~ScenarioSpec.to_dict` /
:meth:`~ScenarioSpec.from_dict` (and therefore through JSON config
files and the CLI), and two specs are equal iff they describe the same
run.  Everything an engine does is a pure function of its spec.

**Spec v2.**  The device axis is a structured sub-spec: a
:class:`DeviceSpec` names a registry device *and* may override its
published parameters (``r_on``, ``r_off``, ``v_set``, ``v_reset``),
and a :class:`~repro.crossbar.nonideal.NonidealitySpec` composes the
device-nonideality stack (stuck-at faults, conductance variability,
wire IR drop, write-verify) into the engines' fabrics.  Serialization
is versioned but backward compatible both ways:

* v1 spellings (``"device": "vteam"``, no ``nonideality`` key) parse
  unchanged, and
* a spec whose v2 fields are all default *serializes in v1 form* --
  same dict, same :meth:`~ScenarioSpec.canonical_json`, same
  :meth:`~ScenarioSpec.canonical_hash` -- so ideal specs keep their
  content address and the result cache stays warm across the redesign.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from types import MappingProxyType
from typing import Any, Mapping

from repro.api.registry import DEVICES, ENGINES, WORKLOADS
from repro.crossbar.nonideal import NonidealitySpec

__all__ = ["SpecError", "DeviceSpec", "NonidealitySpec", "ScenarioSpec"]


def _spec_from_dict(data: dict[str, Any]) -> "ScenarioSpec":
    """Module-level pickle constructor (see ScenarioSpec.__reduce__)."""
    return ScenarioSpec.from_dict(data)

#: Types allowed inside ``ScenarioSpec.params`` (JSON-representable scalars).
_PARAM_TYPES = (str, int, float, bool)

#: Device parameters a :class:`DeviceSpec` may override.
_DEVICE_OVERRIDE_KEYS = ("r_on", "r_off", "v_set", "v_reset")


class SpecError(ValueError):
    """A scenario description is malformed."""


@dataclasses.dataclass(frozen=True)
class DeviceSpec:
    """The device axis of a v2 spec: registry name + parameter overrides.

    Attributes:
        name: device model name (``repro.api.DEVICES``).
        overrides: published-parameter overrides applied on top of the
            registry entry's window -- keys from ``r_on``, ``r_off``,
            ``v_set``, ``v_reset``, positive numbers.  Empty overrides
            make the spec *plain*: it serializes as the bare name
            string (the v1 form) and resolves to the entry's published
            parameters exactly.
    """

    name: str = "bipolar"
    overrides: Mapping[str, float] = dataclasses.field(
        default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise SpecError("device name must be a non-empty string")
        if not isinstance(self.overrides, Mapping):
            raise SpecError("device overrides must be a mapping")
        clean: dict[str, float] = {}
        for key, value in self.overrides.items():
            if key not in _DEVICE_OVERRIDE_KEYS:
                raise SpecError(
                    f"unknown device override {key!r}; choose from "
                    f"{list(_DEVICE_OVERRIDE_KEYS)}"
                )
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)) or value <= 0:
                raise SpecError(
                    f"device override {key!r} must be a positive "
                    f"number, got {value!r}"
                )
            clean[key] = float(value)
        object.__setattr__(self, "overrides", MappingProxyType(clean))

    def __hash__(self) -> int:
        return hash((self.name, tuple(sorted(self.overrides.items()))))

    def __str__(self) -> str:
        # Sweeps and reports render the device axis by name.
        return self.name

    @property
    def is_plain(self) -> bool:
        """True when this is a bare registry device (v1-representable)."""
        return not self.overrides

    def to_value(self) -> str | dict[str, Any]:
        """The serialized form: a bare name (v1) or a nested dict (v2)."""
        if self.is_plain:
            return self.name
        return {"name": self.name, "overrides": dict(self.overrides)}

    @classmethod
    def from_value(cls, value: Any) -> "DeviceSpec":
        """Parse either serialized form (or pass through a DeviceSpec)."""
        if isinstance(value, DeviceSpec):
            return value
        if isinstance(value, str):
            return cls(name=value)
        if isinstance(value, Mapping):
            unknown = sorted(set(value) - {"name", "overrides"})
            if unknown:
                raise SpecError(
                    f"unknown device keys {unknown}; "
                    "expected 'name' and optional 'overrides'"
                )
            if "name" not in value:
                # Never guess the device a set of overrides was meant
                # for -- a silent default would run the wrong model.
                raise SpecError(
                    "device mapping requires a 'name' (and optional "
                    "'overrides')"
                )
            return cls(name=value["name"],
                       overrides=value.get("overrides", {}))
        raise SpecError(
            "device must be a registry name or a "
            "{'name': ..., 'overrides': {...}} mapping, got "
            f"{type(value).__name__}"
        )

    def resolve_parameters(self):
        """The effective :class:`~repro.devices.base.DeviceParameters`.

        Registry entry's published window with this spec's overrides
        applied; the combined window is re-validated (e.g. an ``r_on``
        override must stay below ``r_off``).
        """
        from repro.api.devices import device_entry

        entry = device_entry(self.name)
        if self.is_plain:
            return entry.parameters
        try:
            return dataclasses.replace(entry.parameters, **self.overrides)
        except ValueError as exc:
            raise SpecError(
                f"device {self.name!r} overrides produce an invalid "
                f"window: {exc}"
            ) from None

    def replaced(self, **changes: Any) -> "DeviceSpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)


@dataclasses.dataclass(frozen=True)
class ScenarioSpec:
    """One fully-described run of the reproduction.

    Attributes:
        engine: execution engine name (``repro.api.ENGINES``).
        workload: workload generator name (``repro.api.WORKLOADS``).
        device: the device axis.  Accepts a registry name string (v1),
            a ``{"name": ..., "overrides": {...}}`` mapping, or a
            :class:`DeviceSpec`; always stored as a :class:`DeviceSpec`
            (``spec.device.name`` is the registry name).
        size: primary problem size -- table rows, sequence/payload/text
            length, graph vertices, depending on the workload.
        items: secondary count -- queries, patterns, rules, motif plants.
        batch: batch width: logical crossbars (``mvp_batched``) or input
            streams (``rram_ap``); single-item engines require 1.
        seed: RNG seed; two runs of an equal spec are bit-identical.
        params: extra scalar knobs forwarded to the engine/workload
            (e.g. ``{"kernel": "sram", "motif": "TATAWR"}``; the
            ``analog_mvm`` engine reads its quantization/tiling knobs
            ``weight_bits`` / ``dac_bits`` / ``adc_bits`` /
            ``tile_rows`` / ``tile_cols`` here).  Stored as a
            read-only mapping so a spec's equality/hash cannot change
            after construction.  Structured knobs do *not* belong
            here -- device windows go in ``device.overrides`` and
            physics in ``nonideality``.
        nonideality: the device-nonideality stack
            (:class:`~repro.crossbar.nonideal.NonidealitySpec`);
            accepts a mapping or a spec instance.  All-default means
            the ideal fabric.
    """

    engine: str = "mvp"
    workload: str = "database"
    device: DeviceSpec | str = "bipolar"
    size: int = 64
    items: int = 4
    batch: int = 1
    seed: int = 0
    params: Mapping[str, Any] = dataclasses.field(default_factory=dict)
    nonideality: NonidealitySpec | Mapping[str, Any] = dataclasses.field(
        default_factory=NonidealitySpec)

    def __post_init__(self) -> None:
        for name in ("engine", "workload"):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise SpecError(f"{name} must be a non-empty string")
        if isinstance(self.device, str) and not self.device:
            raise SpecError("device must be a non-empty string")
        object.__setattr__(self, "device",
                           DeviceSpec.from_value(self.device))
        if not isinstance(self.nonideality, NonidealitySpec):
            try:
                object.__setattr__(
                    self, "nonideality",
                    NonidealitySpec.from_dict(self.nonideality))
            except ValueError as exc:
                raise SpecError(str(exc)) from None
        for name in ("size", "items", "batch"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise SpecError(f"{name} must be a positive integer")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) \
                or self.seed < 0:
            raise SpecError("seed must be a non-negative integer")
        if not isinstance(self.params, Mapping):
            raise SpecError("params must be a mapping")
        for key, value in self.params.items():
            if not isinstance(key, str) or not key:
                raise SpecError("params keys must be non-empty strings")
            if not isinstance(value, _PARAM_TYPES):
                hint = ""
                if isinstance(value, Mapping):
                    hint = (" (nested mappings are not params: device "
                            "windows go in device.overrides, physics in "
                            "nonideality -- spec v2)")
                raise SpecError(
                    f"params[{key!r}] must be a str/int/float/bool "
                    f"scalar, got {type(value).__name__} "
                    f"{_truncated(value)}{hint}"
                )
        # Detach from the caller's dict and freeze: neither mutating the
        # source mapping nor spec.params itself can change a spec after
        # construction (its hash/equality must be stable).
        object.__setattr__(self, "params",
                           MappingProxyType(dict(self.params)))

    def __hash__(self) -> int:
        # The auto-generated frozen-dataclass hash chokes on the params
        # dict; hash its sorted items instead so specs can key caches.
        return hash((
            self.engine, self.workload, self.device, self.size,
            self.items, self.batch, self.seed,
            tuple(sorted(self.params.items())),
            self.nonideality,
        ))

    def __reduce__(self):
        # MappingProxyType makes the frozen dataclass unpicklable as-is;
        # round-tripping through the dict form restores an equal spec,
        # which is what lets specs (and RunResults carrying them) cross
        # multiprocessing boundaries in repro.parallel.
        return (_spec_from_dict, (self.to_dict(),))

    # -- v2 views ----------------------------------------------------------------

    @property
    def device_name(self) -> str:
        """The registry device name (``spec.device.name`` shorthand)."""
        return self.device.name

    @property
    def spec_version(self) -> int:
        """2 when any structured sub-spec is non-default, else 1."""
        if self.device.is_plain and self.nonideality.is_default():
            return 1
        return 2

    # -- content addressing ------------------------------------------------------

    def canonical_json(self) -> str:
        """The canonical serialized form: sorted keys, no whitespace.

        Two equal specs render identically regardless of params
        insertion order or a dict/JSON round-trip, so this string (and
        therefore :meth:`canonical_hash`) is a stable content address.
        A spec whose v2 fields are all default renders in v1 form, so
        ideal specs hash identically across the v1 -> v2 redesign.
        """
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def canonical_hash(self) -> str:
        """SHA-256 over :meth:`canonical_json` -- the result-cache key."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    # -- registry validation ---------------------------------------------------

    def validate_names(self) -> "ScenarioSpec":
        """Check engine/device/workload against the registries.

        Performed separately from construction so specs can be built (and
        serialized) before -- or without -- the registries being populated.

        Returns:
            self, for chaining.

        Raises:
            UnknownNameError: naming the axis and the available choices.
        """
        ENGINES.get(self.engine)
        DEVICES.get(self.device.name)
        WORKLOADS.get(self.workload)
        return self

    # -- round-trips -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain-scalar dict that :meth:`from_dict` inverts exactly.

        v1-representable specs (plain device, default nonideality) emit
        exactly the v1 key set; structured specs add ``"version": 2``
        plus the nested forms.
        """
        data: dict[str, Any] = {
            "engine": self.engine,
            "workload": self.workload,
            "device": self.device.to_value(),
            "size": self.size,
            "items": self.items,
            "batch": self.batch,
            "seed": self.seed,
            "params": dict(self.params),
        }
        if self.spec_version == 2:
            data["version"] = 2
            if not self.nonideality.is_default():
                data["nonideality"] = self.nonideality.to_dict()
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from a config dict (strict: unknown keys fail).

        Accepts both serialized generations: flat v1 dicts and v2 dicts
        with nested ``device`` / ``nonideality`` and a ``version`` key.

        Raises:
            SpecError: on unknown keys, invalid field values, or a
                ``version`` that contradicts the content.
        """
        if not isinstance(data, Mapping):
            raise SpecError("spec data must be a mapping")
        known = {f.name for f in dataclasses.fields(cls)} | {"version"}
        unknown = sorted(set(data) - known)
        if unknown:
            raise SpecError(
                f"unknown spec keys {unknown}; known: {sorted(known)}"
            )
        kwargs = dict(data)
        version = kwargs.pop("version", None)
        if version not in (None, 1, 2):
            raise SpecError(
                f"unsupported spec version {version!r} (known: 1, 2)"
            )
        if "params" in kwargs:
            params = kwargs["params"]
            if not isinstance(params, Mapping):
                raise SpecError("params must be a mapping")
            kwargs["params"] = dict(params)
        try:
            spec = cls(**kwargs)
        except TypeError as exc:  # e.g. non-keywordable values
            raise SpecError(str(exc)) from None
        if version == 1 and spec.spec_version == 2:
            raise SpecError(
                "spec declares version 1 but carries v2 structured "
                "fields (device overrides or nonideality)"
            )
        return spec

    def replaced(self, **changes: Any) -> "ScenarioSpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)


def _truncated(value: Any, limit: int = 40) -> str:
    rendered = repr(value)
    return rendered if len(rendered) <= limit \
        else rendered[:limit - 3] + "..."
