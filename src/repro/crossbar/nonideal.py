"""The composable device-nonideality stack over crossbar fabrics.

The paper's cost and robustness story is set by device physics -- finite
LRS/HRS windows, stuck-at faults from endurance failures, lognormal
programming variability, wire IR drop, and the program-verify schemes
real macros use to fight all of the above.  The individual models exist
in :mod:`repro.crossbar.faults`, :mod:`repro.crossbar.parasitics`,
:mod:`repro.crossbar.programming` and :mod:`repro.devices.variability`;
this module composes them into *fabrics* an engine can execute on:

* :class:`NonidealitySpec` -- the declarative knob set (one nested
  sub-spec of the v2 :class:`~repro.api.spec.ScenarioSpec`);
* :class:`NonidealCrossbar` -- a :class:`~repro.crossbar.array.Crossbar`
  whose construction injects stuck faults, whose programming events draw
  lognormal spread and optionally re-verify, and whose reads solve the
  wire IR-drop network;
* :class:`NonidealCrossbarStack` -- B independent nonideal crossbars
  behind the :class:`~repro.crossbar.array.CrossbarStack` interface, each
  item fed by its own entropy stream so sharded execution stays
  bit-identical to single-process execution;
* :func:`read_back_errors` / :func:`worst_read_margin` -- fabric-level
  fidelity probes (bit-error rate of the electrical read-back, worst-case
  sense margin) the engines roll into a
  :class:`~repro.api.result.FidelitySummary`.

This module never imports :mod:`repro.api`: the spec type lives next to
the physics so the api layer can embed it without an import cycle.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Mapping, Sequence

import numpy as np

from repro.crossbar.array import (
    Crossbar,
    _stack_word,
    sense_reference_current,
)
from repro.crossbar.faults import FaultCampaign, inject_stuck_faults
from repro.crossbar.parasitics import (
    WireParameters,
    ir_drop_column_currents,
)
from repro.devices.base import DeviceParameters
from repro.devices.variability import VariabilityModel

__all__ = [
    "NonidealitySpec",
    "NonidealCrossbar",
    "NonidealCrossbarStack",
    "build_crossbar",
    "probe_read_fidelity",
    "read_back_errors",
    "worst_read_margin",
]

#: Resistance acceptance band of the write-verify loop, matching the
#: default of :func:`repro.crossbar.programming.program_with_verify`.
VERIFY_MARGIN_RATIO = 10.0

#: Recognized write schemes: plain programming vs read-verify-rewrite.
WRITE_SCHEMES = ("direct", "verify")

#: Nonideality axes, for engine capability declarations.
AXIS_FAULTS = "faults"
AXIS_VARIABILITY = "variability"
AXIS_IR_DROP = "ir_drop"
AXIS_WRITE_VERIFY = "write_verify"


@dataclasses.dataclass(frozen=True)
class NonidealitySpec:
    """Declarative device-nonideality knobs (spec v2 sub-spec).

    All-default instances describe the ideal fabric and serialize to
    *nothing* (the parent spec omits the key), so ideal specs keep their
    v1 canonical hash.  Each non-default field activates one axis:

    Attributes:
        fault_rate: fraction of cells frozen at a stuck value, in
            [0, 1]; mutually exclusive with ``fault_count``.
        fault_count: exact number of stuck cells (geometry-independent
            alternative to ``fault_rate``).
        stuck_at_one_fraction: share of stuck cells frozen at logic 1
            (SET-stuck, the common RRAM endurance failure).
        variability_sigma: lognormal sigma applied to both resistance
            levels on every programming event; 0 is ideal two-point.
        wire_resistance: interconnect resistance per cell pitch in
            ohms (rows and columns); > 0 routes every read through the
            IR-drop nodal solver.
        write_scheme: ``"direct"`` (one programming pulse) or
            ``"verify"`` (read-verify-rewrite until margins hold).
        verify_iterations: rewrite budget per row under ``"verify"``.
    """

    fault_rate: float = 0.0
    fault_count: int = 0
    stuck_at_one_fraction: float = 0.5
    variability_sigma: float = 0.0
    # The spelling is load-bearing: spec fields feed the canonical
    # serialization hash (cache keys, provenance), so renaming it to the
    # unit-suffixed form would silently invalidate every stored result.
    wire_resistance: float = 0.0  # reprolint: disable=R003
    write_scheme: str = "direct"
    verify_iterations: int = 10

    def __post_init__(self) -> None:
        for name in ("fault_rate", "stuck_at_one_fraction",
                     "variability_sigma", "wire_resistance"):
            value = getattr(self, name)
            if isinstance(value, bool) \
                    or not isinstance(value, (int, float)):
                raise ValueError(
                    f"nonideality.{name} must be a number, got "
                    f"{type(value).__name__}"
                )
            # Normalize ints (JSON ``0``) to floats so equal specs
            # canonicalize -- and hash -- identically.
            object.__setattr__(self, name, float(value))
        for name in ("fault_rate", "stuck_at_one_fraction"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(
                    f"nonideality.{name} must be in [0, 1], got "
                    f"{getattr(self, name)}"
                )
        for name in ("variability_sigma", "wire_resistance"):
            if getattr(self, name) < 0:
                raise ValueError(
                    f"nonideality.{name} must be non-negative, got "
                    f"{getattr(self, name)}"
                )
        if not isinstance(self.fault_count, int) \
                or isinstance(self.fault_count, bool) \
                or self.fault_count < 0:
            raise ValueError(
                "nonideality.fault_count must be a non-negative integer"
            )
        if self.fault_rate > 0 and self.fault_count > 0:
            raise ValueError(
                "give nonideality.fault_rate or fault_count, not both"
            )
        if self.write_scheme not in WRITE_SCHEMES:
            raise ValueError(
                f"nonideality.write_scheme must be one of "
                f"{WRITE_SCHEMES}, got {self.write_scheme!r}"
            )
        if not isinstance(self.verify_iterations, int) \
                or isinstance(self.verify_iterations, bool) \
                or self.verify_iterations < 1:
            raise ValueError(
                "nonideality.verify_iterations must be a positive integer"
            )
        # Reject latent knobs: a non-default value that activates no
        # axis would make the spec non-default (changing its hash and
        # triggering fidelity probes) while running ideal physics.
        if self.stuck_at_one_fraction != 0.5 \
                and not (self.fault_rate > 0 or self.fault_count > 0):
            raise ValueError(
                "nonideality.stuck_at_one_fraction has no effect "
                "without fault_rate or fault_count"
            )
        if self.verify_iterations != 10 and self.write_scheme != "verify":
            raise ValueError(
                "nonideality.verify_iterations has no effect with "
                "write_scheme 'direct'"
            )

    # -- axis views --------------------------------------------------------------

    def is_default(self) -> bool:
        """True when this spec describes the ideal fabric."""
        return self == NonidealitySpec()

    def active_axes(self) -> frozenset[str]:
        """The nonideality axes this spec turns on (empty = ideal)."""
        axes = set()
        if self.fault_rate > 0 or self.fault_count > 0:
            axes.add(AXIS_FAULTS)
        if self.variability_sigma > 0:
            axes.add(AXIS_VARIABILITY)
        if self.wire_resistance > 0:
            axes.add(AXIS_IR_DROP)
        if self.write_scheme == "verify":
            axes.add(AXIS_WRITE_VERIFY)
        return frozenset(axes)

    def faults_for(self, rows: int, cols: int) -> int:
        """Stuck-cell count for a (rows, cols) array under this spec."""
        if self.fault_count:
            return self.fault_count
        return int(round(self.fault_rate * rows * cols))

    def variability_model(self) -> VariabilityModel | None:
        """The lognormal spread model, or None for ideal two-point.

        The single sigma maps to the model's *cycle-to-cycle* fields --
        spread redrawn on every programming event, which is exactly the
        noise write-verify fights (a rewrite re-rolls the cell) -- with
        the device-to-device sigmas at zero.
        """
        if self.variability_sigma == 0:
            return None
        s = self.variability_sigma
        return VariabilityModel(sigma_on_d2d=0.0, sigma_off_d2d=0.0,
                                sigma_on_c2c=s, sigma_off_c2c=s)

    def wire_parameters(self) -> WireParameters | None:
        """Interconnect parameters, or None for ideal wires."""
        if self.wire_resistance == 0:
            return None
        return WireParameters(r_row_segment=self.wire_resistance,
                              r_col_segment=self.wire_resistance)

    # -- round-trips -------------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain-scalar dict that :meth:`from_dict` inverts exactly."""
        return {
            "fault_rate": self.fault_rate,
            "fault_count": self.fault_count,
            "stuck_at_one_fraction": self.stuck_at_one_fraction,
            "variability_sigma": self.variability_sigma,
            "wire_resistance": self.wire_resistance,
            "write_scheme": self.write_scheme,
            "verify_iterations": self.verify_iterations,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "NonidealitySpec":
        """Build from a config dict (strict: unknown keys fail)."""
        if not isinstance(data, Mapping):
            raise ValueError("nonideality must be a mapping")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown nonideality keys {unknown}; "
                f"known: {sorted(known)}"
            )
        return cls(**dict(data))

    def replaced(self, **changes: Any) -> "NonidealitySpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return dataclasses.replace(self, **changes)


class NonidealCrossbar(Crossbar):
    """A crossbar whose physics follow a :class:`NonidealitySpec`.

    Construction injects the spec's stuck-fault campaign; programming
    events sample the spec's lognormal spread and -- under the
    ``"verify"`` write scheme -- re-read and rewrite out-of-band cells;
    reads solve the wire IR-drop network when ``wire_resistance`` > 0.

    All randomness flows from the one ``rng`` handed in, so a fabric is
    a pure function of ``(device parameters, nonideality spec, rng
    state)`` -- the property sharded execution relies on.

    Args:
        rows: number of word lines.
        cols: number of bit lines.
        params: device resistance window and thresholds.
        nonideality: the nonideality knob set.
        rng: random generator; required when the spec has any
            stochastic axis (faults or variability).
        read_voltage_volts: word-line read voltage.

    Attributes:
        nonideality: the spec this fabric realizes.
        fault_campaign: the injected stuck-fault campaign.
        wires: interconnect parameters, or None for ideal wires.
        verify_retries: total verify-loop rewrite iterations spent.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        params: DeviceParameters | None = None,
        nonideality: NonidealitySpec | None = None,
        rng: np.random.Generator | None = None,
        read_voltage_volts: float = 0.2,
    ) -> None:
        nonideality = nonideality or NonidealitySpec()
        stochastic = {AXIS_FAULTS, AXIS_VARIABILITY} \
            & nonideality.active_axes()
        if stochastic and rng is None:
            raise ValueError(
                "a numpy Generator is required for nonideality axes "
                f"{sorted(stochastic)}"
            )
        super().__init__(
            rows, cols, params=params,
            read_voltage_volts=read_voltage_volts,
            variability=nonideality.variability_model(), rng=rng,
        )
        self.nonideality = nonideality
        self.wires = nonideality.wire_parameters()
        self.verify_retries = 0
        n_faults = nonideality.faults_for(rows, cols)
        if n_faults:
            self.fault_campaign = inject_stuck_faults(
                self, n_faults, rng,
                nonideality.stuck_at_one_fraction,
            )
        else:
            self.fault_campaign = FaultCampaign(0, 0, ())

    # -- programming (verify-aware) ----------------------------------------------

    def write_row(self, row: int, bits) -> None:
        """Program a word line, then verify-rewrite under ``"verify"``.

        The verify loop re-reads the row's programmed resistances and
        rewrites any cell outside a factor :data:`VERIFY_MARGIN_RATIO`
        of its nominal level, up to ``verify_iterations`` times --
        per-row program-verify as in
        :func:`repro.crossbar.programming.program_with_verify`.  Stuck
        cells never verify and are skipped.  Single-cell
        :meth:`~repro.crossbar.array.Crossbar.write` calls (the verify
        loop's own rewrites included) are plain direct writes.
        """
        super().write_row(row, bits)
        if self.nonideality.write_scheme == "verify":
            self.verify_retries += self._verify_row(row)

    def _verify_row(self, row: int) -> int:
        """Rewrite out-of-band cells of ``row``; returns retries used."""
        p = self.params
        target_on = self.bits[row].astype(bool)
        writable = ~self._stuck_mask[row]
        retries = 0
        for _ in range(self.nonideality.verify_iterations):
            r = self.resistances[row]
            failing = writable & (
                (target_on & (r > p.r_on * VERIFY_MARGIN_RATIO))
                | (~target_on & (r < p.r_off / VERIFY_MARGIN_RATIO))
            )
            if not failing.any():
                break
            retries += 1
            for col in np.nonzero(failing)[0]:
                Crossbar.write(self, row, int(col),
                               int(self.bits[row, col]))
        return retries

    # -- reads (IR-drop-aware) ---------------------------------------------------

    def column_currents(self, active_rows: Sequence[int]) -> np.ndarray:
        """Bit-line currents; solves the wire network when non-ideal."""
        rows = self._validated_rows(active_rows)
        if self.wires is None:
            return super().column_currents(rows)
        return ir_drop_column_currents(self, rows, self.wires)


class NonidealCrossbarStack:
    """B independent nonideal crossbars behind the stack interface.

    The ideal :class:`~repro.crossbar.array.CrossbarStack` vectorizes
    over a shared two-point resistance tensor; nonideal fabrics cannot
    share state (each item has its own faults, spread and verify
    history), so this stack *composes* B :class:`NonidealCrossbar`
    items instead.  Per-item physics are therefore bit-identical to a
    standalone nonideal crossbar fed the same generator -- which is
    exactly what makes batched nonideal runs equal their single-item
    and sharded counterparts.

    Args:
        rows: word lines per logical array.
        cols: bit lines per logical array.
        params: shared device window and thresholds.
        nonideality: shared nonideality knob set.
        rngs: one generator per item, in item order.  Callers derive
            them from per-item entropy streams (the engines key them by
            absolute batch index) so batch composition never changes an
            item's physics.
        read_voltage_volts: shared word-line read voltage.
    """

    def __init__(
        self,
        rows: int,
        cols: int,
        params: DeviceParameters | None = None,
        nonideality: NonidealitySpec | None = None,
        rngs: Sequence[np.random.Generator | None] = (None,),
        read_voltage_volts: float = 0.2,
    ) -> None:
        if not rngs:
            raise ValueError("stack must hold at least one logical array")
        self.items = [
            NonidealCrossbar(rows, cols, params=params,
                             nonideality=nonideality, rng=rng,
                             read_voltage_volts=read_voltage_volts)
            for rng in rngs
        ]
        first = self.items[0]
        self.batch = len(self.items)
        self.rows = rows
        self.cols = cols
        self.params = first.params
        self.read_voltage = read_voltage_volts
        self.nonideality = first.nonideality

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.batch, self.rows, self.cols

    # -- stacked state views -----------------------------------------------------

    @property
    def bits(self) -> np.ndarray:
        """Stored logic values, int8 (batch, rows, cols) -- a copy."""
        return np.stack([item.bits for item in self.items])

    @property
    def resistances(self) -> np.ndarray:
        """Programmed resistances in ohms, (batch, rows, cols) copy."""
        return np.stack([item.resistances for item in self.items])

    @property
    def program_cycles(self) -> np.ndarray:
        """Programming-event counts, (batch, rows, cols) copy."""
        return np.stack([item.program_cycles for item in self.items])

    @property
    def verify_retries(self) -> int:
        """Verify rewrite iterations summed over all items."""
        return sum(item.verify_retries for item in self.items)

    # -- programming -------------------------------------------------------------

    def write_row(self, row: int, bits: np.ndarray) -> None:
        """Program one word line of every item (per-item physics).

        Args:
            row: word-line index, shared across the batch.
            bits: (batch, cols) per-item words, or (cols,) broadcast.
        """
        for item, word in zip(self.items,
                              _stack_word(bits, self.batch, self.cols)):
            item.write_row(row, word)

    def load_tensor(self, bits: np.ndarray) -> None:
        """Program the whole stack from a (batch, rows, cols) tensor."""
        bits = np.asarray(bits)
        if bits.shape != self.shape:
            raise ValueError(
                f"expected shape {self.shape}, got {bits.shape}"
            )
        for item, matrix in zip(self.items, bits):
            item.load_matrix(matrix)

    # -- reads -------------------------------------------------------------------

    def column_currents(self, active_rows: Sequence[int]) -> np.ndarray:
        """(batch, cols) currents, each item read with its own physics."""
        return np.stack([
            item.column_currents(active_rows) for item in self.items
        ])

    def read_row(self, row: int) -> np.ndarray:
        """Single-row electrical read of every item, returning bits."""
        return np.stack([item.read_row(row) for item in self.items])

    def stored_word(self, row: int) -> np.ndarray:
        """The programmed bits of a row across the batch."""
        return np.stack([item.stored_word(row) for item in self.items])

    def max_program_cycles(self) -> int:
        """Worst-case per-cell programming count over the whole stack."""
        return max(item.max_program_cycles() for item in self.items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NonidealCrossbarStack({self.batch}x{self.rows}x{self.cols}, "
            f"axes={sorted(self.nonideality.active_axes())})"
        )


def build_crossbar(
    rows: int,
    cols: int,
    params: DeviceParameters | None = None,
    nonideality: NonidealitySpec | None = None,
    rng: np.random.Generator | None = None,
    read_voltage_volts: float = 0.2,
) -> Crossbar:
    """Fabric factory: the ideal array, or its non-ideal counterpart.

    The one construction switch every crossbar-backed fabric shares
    (the engines' ``build_fabric`` hooks and the analog MVM tile mapper
    both route through it): an all-default ``nonideality`` yields a
    plain :class:`~repro.crossbar.array.Crossbar` -- no per-read
    physics overhead -- while any active axis yields a
    :class:`NonidealCrossbar` driven by ``rng``.
    """
    if nonideality is None or nonideality.is_default():
        return Crossbar(rows, cols, params=params,
                        read_voltage_volts=read_voltage_volts)
    return NonidealCrossbar(rows, cols, params=params,
                            nonideality=nonideality, rng=rng,
                            read_voltage_volts=read_voltage_volts)


# -- fidelity probes ---------------------------------------------------------


def probe_read_fidelity(crossbar: Crossbar) -> tuple[int, int, float]:
    """One electrical sweep: read-back errors + worst sense margin.

    Reads every row once through the fabric's own read path (IR drop
    and resistance spread included) and derives both fidelity metrics
    from the same current vectors -- the engines' post-run probe, where
    a second sweep would double the IR-drop solve cost:

    * **errors**: cells whose thresholded read disagrees with the
      programmed intent (the array's ``bits`` record what each cell
      actually holds, so stuck cells read back *consistently* -- this
      measures read-chain errors; fault counts are reported apart);
    * **worst margin**: the most negative signed distance of any cell's
      read current from the sense-amp reference (the geometric mean of
      the two nominal single-cell levels), oriented so positive means
      "read correctly".

    Returns:
        ``(bit_errors, cells, worst_margin)``.
    """
    i_ref = sense_reference_current(crossbar.params,
                                    crossbar.read_voltage)
    if getattr(crossbar, "wires", None) is None:
        # Without a wire network a single-row read is the elementwise
        # Ohm's-law current of that row (the row sum degenerates to one
        # term), so the whole sweep vectorizes into one array pass that
        # is bit-identical to the per-row loop below: every per-cell
        # current, threshold and margin is the same float, and the
        # global min/total are order-free.
        currents = crossbar.read_voltage * (1.0 / crossbar.resistances)
        stored_on = crossbar.bits.astype(bool)
        errors = int(((currents > i_ref) != stored_on).sum())
        margin = np.where(stored_on, currents - i_ref, i_ref - currents)
        return errors, crossbar.rows * crossbar.cols, float(margin.min())
    errors = 0
    worst = math.inf
    for row in range(crossbar.rows):
        currents = crossbar.column_currents([row])
        stored_on = crossbar.bits[row].astype(bool)
        read = currents > i_ref
        errors += int((read != stored_on).sum())
        margin = np.where(stored_on, currents - i_ref, i_ref - currents)
        worst = min(worst, float(margin.min()))
    return errors, crossbar.rows * crossbar.cols, worst


def read_back_errors(crossbar: Crossbar) -> tuple[int, int]:
    """Electrical read-back errors over the whole array.

    The error half of :func:`probe_read_fidelity`; see there for the
    measurement's semantics.

    Returns:
        ``(bit_errors, cells)``: mismatch count and cells checked.
    """
    errors, cells, _ = probe_read_fidelity(crossbar)
    return errors, cells


def worst_read_margin(crossbar: Crossbar) -> float:
    """Worst single-row sense margin over all cells, in amperes.

    The margin half of :func:`probe_read_fidelity`; negative margins
    flag cells whose spread, faults or IR drop pushed their read
    current across the sense-amp reference.
    """
    return probe_read_fidelity(crossbar)[2]
