"""Kernel- and chip-level cost models for automata processors.

The paper's comparison strategy (Section IV-D): all three hardware APs --
RRAM-AP, SRAM-AP (Cache Automaton) and SDRAM-AP (Micron AP) -- share the
same architecture (Fig. 6); they differ in the *vector dot product
operator* that implements the STE array and the routing switches.  Pricing
that one kernel prices the chip.

The RRAM and SRAM kernel numbers are the Fig. 9 measurements (104 ps /
2.09 fJ vs 161 ps / 5.16 fJ per 256-cell column); they can also be
re-derived live from the transient simulator via
:func:`kernel_cost_from_circuit`.  The SDRAM numbers are anchored to the
Micron AP's published 133 MHz symbol rate (7.5 ns per symbol) with a DRAM
cell area of ~30 F^2 in its 50 nm process.
"""

from __future__ import annotations

import dataclasses

from repro.circuits.bitline import (
    build_rram_column,
    build_sram_column,
    measure_discharge,
)
from repro.circuits.tech import PTM32, TechnologyParameters
from repro.devices.base import DeviceParameters

__all__ = [
    "DotProductKernelCost",
    "RRAM_KERNEL",
    "SRAM_KERNEL",
    "SDRAM_KERNEL",
    "kernel_cost_from_circuit",
    "APChipCost",
]


@dataclasses.dataclass(frozen=True)
class DotProductKernelCost:
    """Cost of one vector-dot-product column evaluation.

    Attributes:
        name: technology label.
        delay_seconds: bit-line evaluate delay, seconds per activation.
        energy_per_column_joules: joules per column per activation.
        cell_area_f2: configurable-bit area, F^2.
        config_write_time_seconds: per-cell configuration write time
            (RRAM programming is slow -- a stated drawback).
        config_write_energy_joules: per-cell configuration write energy.
        volatile: True if configuration is lost on power-down (the paper's
            non-volatility argument for RRAM-AP).
    """

    name: str
    delay_seconds: float
    energy_per_column_joules: float
    cell_area_f2: float
    config_write_time_seconds: float
    config_write_energy_joules: float
    volatile: bool

    def __post_init__(self) -> None:
        for attr in ("delay_seconds", "energy_per_column_joules",
                     "cell_area_f2", "config_write_time_seconds",
                     "config_write_energy_joules"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")


RRAM_KERNEL = DotProductKernelCost(
    name="RRAM-AP",
    delay_seconds=104e-12,
    energy_per_column_joules=2.09e-15,
    cell_area_f2=12.0,
    config_write_time_seconds=100e-9,   # slow SET/RESET programming
    config_write_energy_joules=10e-12,  # power-hungry programming pulse
    volatile=False,
)

SRAM_KERNEL = DotProductKernelCost(
    name="SRAM-AP",
    delay_seconds=161e-12,
    energy_per_column_joules=5.16e-15,
    cell_area_f2=250.0,
    config_write_time_seconds=1e-9,     # SRAM writes are fast
    config_write_energy_joules=0.1e-12,
    volatile=True,
)

SDRAM_KERNEL = DotProductKernelCost(
    name="SDRAM-AP",
    delay_seconds=7.5e-9,         # 133 MHz symbol cycle of the Micron AP
    energy_per_column_joules=15e-15,
    cell_area_f2=30.0,
    config_write_time_seconds=10e-9,
    config_write_energy_joules=1e-12,
    volatile=True,
)


def kernel_cost_from_circuit(
    kind: str,
    n_cells: int = 256,
    tech: TechnologyParameters = PTM32,
    device: DeviceParameters | None = None,
    dt: float = 1e-12,
) -> DotProductKernelCost:
    """Re-derive a kernel cost from the Fig. 9 transient experiment.

    Args:
        kind: "rram" or "sram".
        n_cells: column height (the paper uses 256).
        tech: technology constants.
        device: memristor window (RRAM only).
        dt: transient step.

    Returns:
        A kernel cost whose delay/energy come from the circuit simulation
        (worst case: single hot cell, one-hot input) and whose remaining
        fields come from the corresponding published kernel record.
    """
    bits = [1] + [0] * (n_cells - 1)
    if kind == "rram":
        column = build_rram_column(tech, device or DeviceParameters(), bits,
                                   selected=[0])
        template = RRAM_KERNEL
    elif kind == "sram":
        column = build_sram_column(tech, bits, selected=[0])
        template = SRAM_KERNEL
    else:
        raise ValueError("kind must be 'rram' or 'sram'")
    measured = measure_discharge(column, t_stop=column.t_wordline + 1e-9,
                                 dt=dt)
    if measured.discharge_time_seconds is None:
        raise RuntimeError("column failed to discharge; check calibration")
    return dataclasses.replace(
        template,
        delay_seconds=measured.discharge_time_seconds,
        energy_per_column_joules=measured.energy_joules,
    )


@dataclasses.dataclass(frozen=True)
class APChipCost:
    """Chip-level roll-up for one configured automaton.

    Attributes:
        kernel: the priced dot-product kernel.
        n_states: configured STE columns.
        wordlines: STE-array rows (the 2^W decoder outputs).
        routing_columns: total routing-switch columns activated per symbol.
        routing_stages: dot-product stages in the routing path (1 for a
            full crossbar, 2 for hierarchical global/local switches).
    """

    kernel: DotProductKernelCost
    n_states: int
    wordlines: int
    routing_columns: int
    routing_stages: int

    def symbol_latency(self) -> float:
        """Seconds to process one input symbol (STE + routing, serial)."""
        return self.kernel.delay_seconds * (1 + self.routing_stages)

    def symbol_energy(self) -> float:
        """Joules per input symbol across STE and routing arrays."""
        ste = self.n_states * self.kernel.energy_per_column_joules
        routing = (self.routing_columns
                   * self.kernel.energy_per_column_joules)
        return ste + routing

    def throughput_symbols_per_second(self) -> float:
        """Pipelined throughput: stages overlap across symbols."""
        return 1.0 / self.kernel.delay_seconds

    def array_bits(self) -> int:
        """Configurable bits: STE array plus routing switches."""
        return self.wordlines * self.n_states + self.routing_columns * self.n_states

    def area_mm2(self, feature_nm: float = 32.0) -> float:
        """Configurable-array area (the component the kernel choice sets)."""
        f_m = feature_nm * 1e-9
        cell = self.kernel.cell_area_f2 * f_m * f_m
        return self.array_bits() * cell / 1e-6

    def config_time(self) -> float:
        """Seconds to (re)configure the full automaton, row-serial."""
        return self.wordlines * self.kernel.config_write_time_seconds

    def config_energy(self) -> float:
        """Joules to program every configurable bit once."""
        return self.array_bits() * self.kernel.config_write_energy_joules
