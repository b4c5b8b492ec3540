"""Host-CPU + MVP offload runtime (the Fig. 2 execution model).

The host runs a program whose memory-intensive loops are offloaded: each
loop becomes a batch of MVP macro-instructions, dispatched as one logical
macro-call.  The runtime tracks how much work ran where and combines the
MVP's measured cost counters with the analytic CPU-side model to estimate
whole-program energy/time -- letting the functional simulation and the
Fig. 4 analytical model be cross-checked on identical op mixes.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.arch.cache import MemoryHierarchyModel, MissRates
from repro.arch.params import EnergyParameters, LatencyParameters
from repro.mvp.isa import Instruction
from repro.mvp.processor import MVPProcessor

__all__ = ["HostReport", "HostSystem"]


@dataclasses.dataclass(frozen=True)
class HostReport:
    """Whole-program execution estimate.

    Attributes:
        cpu_ops: operations executed on the host core.
        mvp_instructions: macro-instructions dispatched to the MVP.
        mvp_bit_operations: bit-operations the MVP completed.
        cpu_energy_joules: host-side energy, joules.
        mvp_energy_joules: MVP-side energy, joules.
        cpu_time_seconds: host-side time, seconds.
        mvp_time_seconds: MVP-side time, seconds.
    """

    cpu_ops: int
    mvp_instructions: int
    mvp_bit_operations: int
    cpu_energy_joules: float
    mvp_energy_joules: float
    cpu_time_seconds: float
    mvp_time_seconds: float

    @property
    def total_energy(self) -> float:
        return self.cpu_energy_joules + self.mvp_energy_joules

    @property
    def total_time(self) -> float:
        """Serialized offload: host waits for macro-calls (conservative)."""
        return self.cpu_time_seconds + self.mvp_time_seconds

    @property
    def offloaded_fraction(self) -> float:
        """Share of all operations that ran in-memory."""
        total = self.cpu_ops + self.mvp_bit_operations
        return self.mvp_bit_operations / total if total else 0.0


class HostSystem:
    """A host core driving an :class:`MVPProcessor`.

    Args:
        mvp: the vector processor to offload to.
        misses: cache behaviour of the host-side code.
        mem_intensity: memory share of host-side instructions.
        energy, latency: CPU-side technology parameters.
    """

    def __init__(
        self,
        mvp: MVPProcessor,
        misses: MissRates = MissRates(0.1, 0.1),
        mem_intensity: float = 0.2,
        energy: EnergyParameters = EnergyParameters(),
        latency: LatencyParameters = LatencyParameters(),
    ) -> None:
        self.mvp = mvp
        self.misses = misses
        self.mem_intensity = mem_intensity
        self.hierarchy = MemoryHierarchyModel(energy, latency)
        self.cpu_ops = 0
        self._mvp_stats_base = dataclasses.replace(mvp.stats)

    def run_cpu_ops(self, count: int) -> None:
        """Account ``count`` conventional instructions on the host core."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self.cpu_ops += count

    def offload(self, program: Sequence[Instruction]) -> list:
        """Dispatch a macro-instruction batch to the MVP.

        Each batch costs the host one dispatch instruction (decode happens
        MVP-side, per the paper).

        Returns:
            Host-bound results (VREAD vectors, POPCOUNT scalars) in order.
        """
        self.cpu_ops += 1
        return self.mvp.execute(program)

    def report(self) -> HostReport:
        """Summarize everything executed since construction."""
        e_op = self.hierarchy.op_energy(self.misses, self.mem_intensity)
        t_op = self.hierarchy.op_latency(self.misses, self.mem_intensity)
        stats = self.mvp.stats
        base = self._mvp_stats_base
        return HostReport(
            cpu_ops=self.cpu_ops,
            mvp_instructions=stats.instructions - base.instructions,
            mvp_bit_operations=stats.bit_operations - base.bit_operations,
            cpu_energy_joules=self.cpu_ops * e_op,
            mvp_energy_joules=stats.energy_joules - base.energy_joules,
            cpu_time_seconds=self.cpu_ops * t_op,
            mvp_time_seconds=stats.time_seconds - base.time_seconds,
        )
