"""Routing-matrix implementations: full crossbar and two-level hierarchy.

The complete routing matrix of Eq. 2 needs N^2 switches -- too much for
large automata, as the paper notes.  SDRAM-AP and SRAM-AP therefore use
hierarchical routing; the paper adopts SRAM-AP's two-level structure of
*local* switches (dense, intra-block) and *global* switches (inter-block,
port-limited).  This module implements both:

* :class:`FullCrossbarRouting` -- exact N x N switch matrix.
* :class:`TwoLevelRouting` -- states are partitioned into blocks; edges
  within a block route through the block's local switch, edges between
  blocks claim per-block global ports.  Functionally the Follow Vector is
  identical *when the automaton is routable*; the structure changes cost
  (two switch stages, fewer configurable bits) and adds a routability
  constraint that :meth:`TwoLevelRouting.check_routable` reports.

Neither class evaluates Eq. 2 itself: the processor steps both styles
through :func:`~repro.automata.generic_ap.batched_matrix_steps` over
``routing``, after :meth:`TwoLevelRouting.ensure_routable` has refused an
unroutable configuration.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["FullCrossbarRouting", "TwoLevelRouting", "RoutabilityReport"]


class FullCrossbarRouting:
    """Exact N x N routing crossbar.

    Args:
        routing: boolean (N, N) transition reachability matrix R.
    """

    stages = 1

    def __init__(self, routing: np.ndarray) -> None:
        routing = np.asarray(routing, dtype=bool)
        if routing.ndim != 2 or routing.shape[0] != routing.shape[1]:
            raise ValueError("routing matrix must be square")
        self.routing = routing

    @property
    def n_states(self) -> int:
        return self.routing.shape[0]

    def columns_per_step(self) -> int:
        """Switch columns evaluated per symbol."""
        return self.n_states

    def configurable_bits(self) -> int:
        return self.n_states * self.n_states


@dataclasses.dataclass(frozen=True)
class RoutabilityReport:
    """Outcome of mapping an automaton onto the two-level fabric.

    Attributes:
        routable: True when every block satisfies its port budget.
        worst_out_ports: max distinct destination blocks of any block.
        worst_in_ports: max distinct source blocks of any block.
        violations: human-readable budget violations.
    """

    routable: bool
    worst_out_ports: int
    worst_in_ports: int
    violations: tuple[str, ...]


def _inter_block_pairs(
    routing: np.ndarray, block_of: np.ndarray
) -> frozenset[tuple[int, int]]:
    """Distinct (src block, dst block) pairs of the inter-block edges."""
    src, dst = np.nonzero(routing)
    src_block, dst_block = block_of[src], block_of[dst]
    cross = src_block != dst_block
    return frozenset(zip(src_block[cross].tolist(),
                         dst_block[cross].tolist()))


class TwoLevelRouting:
    """Global/local hierarchical routing (SRAM-AP style).

    The routing matrix and the blocks are read-only copies, so the
    inter-block pairs that routability and cost read are found once,
    at construction.

    Args:
        routing: boolean (N, N) reachability matrix R.
        blocks: partition of range(N) into blocks (state-index lists).
        port_budget: distinct partner blocks each block may talk to in
            each direction through the global switch.
    """

    stages = 2

    def __init__(
        self,
        routing: np.ndarray,
        blocks: list[list[int]],
        port_budget: int = 8,
    ) -> None:
        routing = np.array(routing, dtype=bool)
        n = routing.shape[0]
        if routing.ndim != 2 or routing.shape != (n, n):
            raise ValueError("routing matrix must be square")
        flat = [s for block in blocks for s in block]
        if sorted(flat) != list(range(n)):
            raise ValueError("blocks must partition the state set exactly")
        if port_budget < 1:
            raise ValueError("port_budget must be positive")
        routing.setflags(write=False)
        self.routing = routing
        self.blocks = tuple(tuple(b) for b in blocks)
        self.port_budget = port_budget
        self._block_of = np.empty(n, dtype=int)
        for b, members in enumerate(self.blocks):
            self._block_of[list(members)] = b
        self._block_of.setflags(write=False)
        self._pairs = _inter_block_pairs(routing, self._block_of)

    @property
    def n_states(self) -> int:
        return self.routing.shape[0]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    # -- structure analysis ---------------------------------------------------

    def block_of(self, state: int) -> int:
        return int(self._block_of[state])

    def intra_block_edges(self) -> int:
        src, dst = np.nonzero(self.routing)
        return int((self._block_of[src] == self._block_of[dst]).sum())

    def inter_block_edges(self) -> int:
        src, dst = np.nonzero(self.routing)
        return int((self._block_of[src] != self._block_of[dst]).sum())

    def block_pairs(self) -> frozenset[tuple[int, int]]:
        """Distinct (src block, dst block) pairs with inter-block edges."""
        return self._pairs

    def check_routable(self) -> RoutabilityReport:
        """Verify every block's global-port budget in both directions."""
        out_ports = [0] * self.n_blocks
        in_ports = [0] * self.n_blocks
        for s, d in self._pairs:
            out_ports[s] += 1
            in_ports[d] += 1
        violations = []
        for b in range(self.n_blocks):
            if out_ports[b] > self.port_budget:
                violations.append(
                    f"block {b}: {out_ports[b]} outbound partners "
                    f"> budget {self.port_budget}"
                )
            if in_ports[b] > self.port_budget:
                violations.append(
                    f"block {b}: {in_ports[b]} inbound partners "
                    f"> budget {self.port_budget}"
                )
        return RoutabilityReport(
            routable=not violations,
            worst_out_ports=max(out_ports, default=0),
            worst_in_ports=max(in_ports, default=0),
            violations=tuple(violations),
        )

    # -- execution ------------------------------------------------------------

    def ensure_routable(self) -> None:
        """Raise unless the mapped automaton satisfies the port budgets."""
        report = self.check_routable()
        if not report.routable:
            raise RuntimeError(
                "automaton is not routable on this fabric: "
                + "; ".join(report.violations)
            )

    def columns_per_step(self) -> int:
        """Local switches cover all states; global covers inter-block wires."""
        return self.n_states + len(self._pairs)

    def configurable_bits(self) -> int:
        """Local switch bits + global switch bits (port-granular)."""
        local = sum(len(b) * len(b) for b in self.blocks)
        global_bits = self.n_blocks * self.port_budget * self.n_blocks
        return local + global_bits
