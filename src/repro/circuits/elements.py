"""Circuit element records for the MNA solvers.

Elements are lightweight descriptions; all stamping happens in
:mod:`repro.circuits.mna` and :mod:`repro.circuits.transient`.  Values may be
constants or callables of time, which is how word-line/precharge gating is
expressed without an event queue.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Union

__all__ = [
    "TimeFunction",
    "Resistor",
    "Capacitor",
    "VoltageSource",
    "CurrentSource",
    "Switch",
    "value_at",
]

TimeFunction = Union[float, Callable[[float], float]]


def value_at(value: TimeFunction, t: float) -> float:
    """Evaluate a constant-or-callable element value at time ``t``."""
    if callable(value):
        return float(value(t))
    return float(value)


@dataclasses.dataclass(frozen=True)
class Resistor:
    """Linear resistor between ``node_a`` and ``node_b``.

    ``resistance`` may be time-varying (a callable of seconds -> ohms); this
    is how memristors appear to the transient solver when their state is
    frozen during a read.
    """

    name: str
    node_a: int
    node_b: int
    resistance: TimeFunction

    def conductance_at(self, t: float) -> float:
        r = value_at(self.resistance, t)
        if r <= 0:
            raise ValueError(f"resistor {self.name} has non-positive R={r}")
        return 1.0 / r


@dataclasses.dataclass(frozen=True)
class Capacitor:
    """Linear capacitor with an initial-condition voltage (a -> b)."""

    name: str
    node_a: int
    node_b: int
    capacitance: float
    initial_voltage_volts: float = 0.0

    def __post_init__(self) -> None:
        if self.capacitance <= 0:
            raise ValueError(f"capacitor {self.name} must have C > 0")


@dataclasses.dataclass(frozen=True)
class VoltageSource:
    """Ideal voltage source; ``voltage`` may be a function of time.

    The solver allocates a branch-current unknown per source.  The stored
    branch current is the current flowing *into* the positive terminal from
    ``node_pos`` (so a source delivering power reports a negative branch
    current).
    """

    name: str
    node_pos: int
    node_neg: int
    voltage: TimeFunction


@dataclasses.dataclass(frozen=True)
class CurrentSource:
    """Ideal current source pushing current from ``node_a`` into ``node_b``."""

    name: str
    node_a: int
    node_b: int
    current: TimeFunction


@dataclasses.dataclass(frozen=True)
class Switch:
    """Switch-level MOS transistor: R_on when the gate function is truthy.

    Args:
        name: identifier.
        node_a: drain node index.
        node_b: source node index.
        r_on: channel resistance when conducting, in ohms.
        r_off: leakage resistance when off, in ohms.
        gate: callable of time returning truthy while the switch conducts.
    """

    name: str
    node_a: int
    node_b: int
    r_on: float
    r_off: float
    gate: Callable[[float], bool]

    def __post_init__(self) -> None:
        if self.r_on <= 0 or self.r_off <= 0:
            raise ValueError(f"switch {self.name} resistances must be > 0")

    def conductance_at(self, t: float) -> float:
        return 1.0 / (self.r_on if self.gate(t) else self.r_off)
