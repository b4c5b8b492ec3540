"""The Memristive Vector Processor (paper Section III).

Functional simulator for the MVP: a macro-instruction ISA, one processor
executing it with cost accounting on a scouting-logic crossbar or on a
stack of them, and a host offload runtime implementing the Fig. 2
execution model.
"""

from repro.mvp.arithmetic import (
    BitSliceVector,
    add,
    add_fast,
    equals,
    load_unsigned,
    read_unsigned,
    subtract,
)
from repro.mvp.host import HostReport, HostSystem
from repro.mvp.isa import Instruction, Opcode, validate_program
from repro.mvp.processor import BatchedMVPProcessor, MVPProcessor, MVPStats

__all__ = [
    "BatchedMVPProcessor",
    "BitSliceVector",
    "HostReport",
    "HostSystem",
    "Instruction",
    "MVPProcessor",
    "MVPStats",
    "Opcode",
    "add",
    "add_fast",
    "equals",
    "load_unsigned",
    "read_unsigned",
    "subtract",
    "validate_program",
]
