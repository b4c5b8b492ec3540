"""The hardware automata processor: STE array + routing + accept logic.

:class:`AutomataProcessor` realizes the generic model of Fig. 6 with a
priced dot-product kernel.  The same class implements RRAM-AP and both
baselines (only the kernel cost record differs -- the paper's argument is
precisely that everything above the kernel is shared).

Two compute backends:

* ``"matrix"`` -- numpy boolean math (fast; exact generic model);
* ``"crossbar"`` -- every dot product evaluated through the electrical
  crossbar read path of :class:`~repro.rram_ap.dot_product.
  CrossbarDotProduct`, demonstrating the circuits actually compute the
  automaton.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.automata.generic_ap import (
    APTrace,
    assemble_traces,
    batched_matrix_steps,
    encode_streams,
)
from repro.automata.homogeneous import HomogeneousAutomaton
from repro.devices.base import DeviceParameters
from repro.rram_ap.cost import APChipCost, DotProductKernelCost, RRAM_KERNEL
from repro.rram_ap.dot_product import CrossbarDotProduct
from repro.rram_ap.placement import place
from repro.rram_ap.routing import FullCrossbarRouting, TwoLevelRouting
from repro.rram_ap.ste_array import STEArray

__all__ = ["RunCost", "AutomataProcessor"]


@dataclasses.dataclass(frozen=True)
class RunCost:
    """Aggregate cost of processing one input stream.

    Attributes:
        symbols: input symbols processed.
        latency_seconds: total un-pipelined latency, seconds.
        pipelined_time_seconds: total time at steady-state pipelining,
            seconds.
        energy_joules: total array energy, joules.
    """

    symbols: int
    latency_seconds: float
    pipelined_time_seconds: float
    energy_joules: float


class AutomataProcessor:
    """A configured hardware automata processor.

    Args:
        automaton: the homogeneous automaton to configure.
        kernel: dot-product kernel cost record (RRAM/SRAM/SDRAM).
        routing_style: "full" for the complete N x N crossbar, "two-level"
            for the hierarchical global/local fabric.
        block_size: states per block for two-level routing.
        port_budget: per-block global-port budget for two-level routing.
        backend: "matrix" (numpy) or "crossbar" (electrical reads).
        device: memristor window for the crossbar backend.
    """

    def __init__(
        self,
        automaton: HomogeneousAutomaton,
        kernel: DotProductKernelCost = RRAM_KERNEL,
        routing_style: str = "full",
        block_size: int = 64,
        port_budget: int = 8,
        backend: str = "matrix",
        device: DeviceParameters | None = None,
    ) -> None:
        self.automaton = automaton
        self.kernel = kernel
        self.alphabet = automaton.alphabet
        self.ste_matrix = automaton.ste_matrix()
        self.start = automaton.start_vector()
        self.accept = automaton.accept_vector()
        routing_matrix = automaton.routing_matrix()

        if routing_style == "full":
            self.routing = FullCrossbarRouting(routing_matrix)
        elif routing_style == "two-level":
            blocks = place(automaton, block_size)
            self.routing = TwoLevelRouting(routing_matrix, blocks,
                                           port_budget)
        else:
            raise ValueError("routing_style must be 'full' or 'two-level'")

        self.ste_array = STEArray(self.alphabet, self.ste_matrix,
                                  backend=backend, device=device)
        if backend == "crossbar":
            # Route through the electrical path as well (full matrix; the
            # hierarchy shares the functional result).
            self._crossbar_routing = CrossbarDotProduct(
                routing_matrix, params=device
            )
        self.backend = backend

    # -- configuration-level views ---------------------------------------------

    @property
    def n_states(self) -> int:
        return self.ste_matrix.shape[1]

    def chip_cost(self) -> APChipCost:
        """Chip-level cost roll-up for this configuration."""
        return APChipCost(
            kernel=self.kernel,
            n_states=self.n_states,
            wordlines=self.alphabet.wordline_count,
            routing_columns=self.routing.columns_per_step(),
            routing_stages=self.routing.stages,
        )

    # -- execution ------------------------------------------------------------

    def _symbol_vector(self, symbol) -> np.ndarray:
        return self.ste_array.symbol_vector(symbol)

    def _follow(self, active: np.ndarray) -> np.ndarray:
        if self.backend == "crossbar":
            if not active.any():
                return np.zeros(self.n_states, dtype=bool)
            return self._crossbar_routing.evaluate(active)
        return self.routing.follow(active)

    def run(self, sequence, unanchored: bool = False) -> tuple[APTrace, RunCost]:
        """Process a stream; returns the trace and its hardware cost.

        Args:
            sequence: iterable of alphabet symbols.
            unanchored: re-arm start states every cycle (pattern search).
        """
        symbols = list(sequence)
        active = self.start.copy()
        trace = np.zeros((len(symbols) + 1, self.n_states), dtype=bool)
        trace[0] = active
        accepts = np.zeros(len(symbols), dtype=bool)
        for t, symbol in enumerate(symbols):
            source = active | self.start if unanchored else active
            follow = self._follow(source)
            s = self._symbol_vector(symbol)
            active = follow & s
            trace[t + 1] = active
            accepts[t] = bool((active & self.accept).any())
        ap_trace = APTrace(
            active=trace,
            accept_per_step=accepts,
            accepted=bool(accepts[-1]) if symbols else
            bool((self.start & self.accept).any()),
        )
        return ap_trace, self._stream_cost(len(symbols))

    def _stream_cost(self, n_symbols: int) -> RunCost:
        chip = self.chip_cost()
        return RunCost(
            symbols=n_symbols,
            latency_seconds=n_symbols * chip.symbol_latency(),
            pipelined_time_seconds=n_symbols * self.kernel.delay_seconds,
            energy_joules=n_symbols * chip.symbol_energy(),
        )

    def run_batch(
        self, sequences, unanchored: bool = False
    ) -> tuple[list[APTrace], list[RunCost]]:
        """Process M input streams; the hardware multi-stream mode.

        The same ``run_batch`` contract as
        :meth:`repro.automata.generic_ap.GenericAPModel.run_batch`: every
        per-stream trace is identical to a separate :meth:`run` call, and
        stream lengths may differ.  The "matrix" backend steps all live
        streams through one (M, N) x (N, N) kernel per symbol -- the
        throughput mode hardware APs are built for; the electrical
        "crossbar" backend evaluates streams sequentially (its per-read
        circuit model is single-vector) behind the identical API.

        Args:
            sequences: list of symbol sequences (lengths may differ).
            unanchored: re-arm start states every cycle (pattern search).

        Returns:
            ``(traces, costs)``: one :class:`APTrace` and one
            :class:`RunCost` per stream.
        """
        sequences = [list(s) for s in sequences]
        if not sequences:
            return [], []
        if self.backend == "crossbar":
            results = [self.run(seq, unanchored=unanchored)
                       for seq in sequences]
            return [t for t, _ in results], [c for _, c in results]
        # Two-level routing checks routability per follow() call; batch
        # execution performs the identical check once up front.
        if isinstance(self.routing, TwoLevelRouting):
            self.routing.ensure_routable()
        indices, lengths = encode_streams(self.alphabet, sequences)
        actives, accepts = batched_matrix_steps(
            self.start, self.routing.routing, self.ste_matrix,
            self.accept, indices, lengths, unanchored=unanchored,
        )
        start_accepted = bool((self.start & self.accept).any())
        traces = assemble_traces(actives, accepts, lengths, start_accepted)
        costs = [self._stream_cost(int(n)) for n in lengths]
        return traces, costs

    def find_matches(self, sequence) -> tuple[int, ...]:
        """1-based end positions of unanchored matches in ``sequence``."""
        trace, _ = self.run(sequence, unanchored=True)
        return trace.match_ends
