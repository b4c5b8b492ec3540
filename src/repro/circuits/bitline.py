"""Pre-charge/evaluate bit-line columns: the Fig. 9 experiment circuit.

A vector dot-product column (paper Fig. 7/9a) is a bit line loaded by N
cells.  The protocol is:

1. *Precharge*: a PMOS (modelled as a switch to the precharge supply) pulls
   the bit line to ``v_precharge`` while all word lines are off.
2. *Evaluate*: at ``t_wordline`` the precharge device turns off and the
   selected word line(s) turn on.  If any selected cell stores logic 1 the
   bit line discharges below the SA trip point and the (inverted) output
   reads 1; otherwise it stays high and the output reads 0.

The builders return the circuit plus probe metadata so benches can measure
discharge delay (time from word-line enable to the 0.1 V crossing) and the
energy drawn from the precharge supply over a full cycle.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.circuits.cells import RRAMCell, SRAMCell
from repro.circuits.mna import Circuit
from repro.circuits.tech import TechnologyParameters
from repro.circuits.transient import TransientResult, simulate
from repro.devices.base import DeviceParameters

__all__ = ["BitlineColumn", "build_rram_column", "build_sram_column",
           "DischargeMeasurement", "measure_discharge"]

BITLINE = "bl"
PRECHARGE_SUPPLY = "vpre"


@dataclasses.dataclass
class BitlineColumn:
    """A built dot-product column ready for transient simulation.

    Attributes:
        circuit: the stamped circuit.
        tech: technology constants used.
        n_cells: number of cells on the bit line.
        t_wordline: word-line enable time in seconds.
        kind: "rram" or "sram", for reporting.
    """

    circuit: Circuit
    tech: TechnologyParameters
    n_cells: int
    t_wordline: float
    kind: str


def _add_bitline_infrastructure(
    circuit: Circuit,
    tech: TechnologyParameters,
    total_cap: float,
    t_wordline: float,
) -> None:
    """Stamp the shared precharge path and lumped bit-line capacitance."""
    circuit.add_vsource("precharge_supply", PRECHARGE_SUPPLY, "gnd",
                        tech.v_precharge)
    circuit.add_switch(
        "precharge_pmos",
        PRECHARGE_SUPPLY,
        BITLINE,
        r_on=tech.r_on_nmos,
        r_off=tech.r_off_nmos,
        gate=lambda t: t < t_wordline,
    )
    circuit.add_capacitor("c_bitline", BITLINE, "gnd", total_cap,
                          initial_voltage_volts=tech.v_precharge)


def build_rram_column(
    tech: TechnologyParameters,
    device: DeviceParameters,
    bits: Sequence[int],
    selected: Sequence[int] | None = None,
    t_wordline: float = 1e-9,
) -> BitlineColumn:
    """Build a 1T1R dot-product column.

    Args:
        tech: technology constants.
        device: memristor resistance window.
        bits: stored logic values, one per cell (row).
        selected: indices of rows whose word line is enabled at
            ``t_wordline``; defaults to all rows (the paper's worst-case
            Fig. 9a setup activates the full input vector).
        t_wordline: evaluation start time in seconds.

    Returns:
        The built :class:`BitlineColumn`.
    """
    circuit = Circuit()
    cells = [RRAMCell(tech, device, b) for b in bits]
    total_cap = sum(c.bitline_capacitance for c in cells)
    _add_bitline_infrastructure(circuit, tech, total_cap, t_wordline)
    selected_set = set(range(len(cells)) if selected is None else selected)
    for idx, cell in enumerate(cells):
        enabled = idx in selected_set
        cell.attach(
            circuit,
            BITLINE,
            idx,
            wordline_gate=lambda t, on=enabled: on and t >= t_wordline,
        )
    return BitlineColumn(circuit, tech, len(cells), t_wordline, kind="rram")


def build_sram_column(
    tech: TechnologyParameters,
    bits: Sequence[int],
    selected: Sequence[int] | None = None,
    t_wordline: float = 1e-9,
) -> BitlineColumn:
    """Build an 8T SRAM dot-product column (the SRAM-AP baseline kernel)."""
    circuit = Circuit()
    cells = [SRAMCell(tech, b) for b in bits]
    total_cap = sum(c.bitline_capacitance for c in cells)
    _add_bitline_infrastructure(circuit, tech, total_cap, t_wordline)
    selected_set = set(range(len(cells)) if selected is None else selected)
    for idx, cell in enumerate(cells):
        enabled = idx in selected_set
        cell.attach(
            circuit,
            BITLINE,
            idx,
            wordline_gate=lambda t, on=enabled: on and t >= t_wordline,
        )
    return BitlineColumn(circuit, tech, len(cells), t_wordline, kind="sram")


@dataclasses.dataclass(frozen=True)
class DischargeMeasurement:
    """Outcome of one precharge/evaluate cycle.

    Attributes:
        discharge_time_seconds: seconds from word-line enable to the SA
            trip-point crossing, or None if the bit line never tripped
            (dot product 0).
        energy_joules: energy drawn from the precharge supply over the
            run, joules.
        tripped: whether the SA registered a discharge (inverted output 1).
        result: the raw transient waveforms.
    """

    discharge_time_seconds: float | None
    energy_joules: float
    tripped: bool
    result: TransientResult


def measure_discharge(
    column: BitlineColumn,
    t_stop: float | None = None,
    dt: float = 1e-12,
) -> DischargeMeasurement:
    """Simulate one evaluate cycle and extract the Fig. 9 quantities.

    Args:
        column: a built column.
        t_stop: simulation end; defaults to word-line time + 2 ns, enough
            for the slowest single-cell discharge.
        dt: transient step (1 ps resolves the ~100 ps discharges).

    Returns:
        The :class:`DischargeMeasurement`; ``energy`` includes the precharge
        phase so it corresponds to the paper's per-access charge+discharge
        energy.
    """
    if t_stop is None:
        t_stop = column.t_wordline + 2e-9
    result = simulate(column.circuit, t_stop=t_stop, dt=dt)
    crossing = result.crossing_time(BITLINE, column.tech.v_sa_trip,
                                    falling=True)
    delay = None
    if crossing is not None and crossing >= column.t_wordline:
        delay = crossing - column.t_wordline
    # Per-cycle dynamic energy: the precharge supply must replace the charge
    # removed from the bit line, E = C_BL * V_pre * dV.  The column is
    # self-timed -- the SA latches at the trip point and cuts the word line
    # -- so a tripping column swings exactly V_pre -> V_trip; a silent
    # column only loses its (tiny) leakage droop.
    v_bl = result.v(BITLINE)
    v_end = float(v_bl[-1])
    total_cap = sum(c.capacitance for c in column.circuit.capacitors
                    if c.name == "c_bitline")
    if delay is not None:
        swing = column.tech.v_precharge - column.tech.v_sa_trip
    else:
        swing = column.tech.v_precharge - max(v_end, 0.0)
    energy = total_cap * column.tech.v_precharge * swing
    return DischargeMeasurement(
        discharge_time_seconds=delay,
        energy_joules=energy,
        tripped=delay is not None,
        result=result,
    )
