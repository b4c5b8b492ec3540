"""State-to-block placement for hierarchical routing.

The two-level fabric only routes automata whose inter-block connectivity
fits the per-block port budgets, so placement quality decides mappability.
Automata from regex compilation are chain-heavy (locality-friendly):
a BFS ordering from the start states packs connected runs of states into
the same block, and a greedy refinement pass then moves states between
blocks while that reduces the number of distinct inter-block pairs.
"""

from __future__ import annotations

import numpy as np

from repro.automata.homogeneous import HomogeneousAutomaton

__all__ = ["bfs_blocks", "refine_blocks", "place"]


def bfs_blocks(
    automaton: HomogeneousAutomaton, block_size: int
) -> list[list[int]]:
    """Pack states into blocks in BFS order from the start states.

    Args:
        automaton: the automaton to place.
        block_size: states per block (the last block may be smaller).

    Returns:
        A partition of ``range(n_states)`` into contiguous-traversal blocks.
    """
    if block_size < 1:
        raise ValueError("block_size must be positive")
    n = automaton.n_states
    order: list[int] = []
    seen: set[int] = set()
    frontier = sorted(automaton.start_indices)
    while frontier:
        nxt: list[int] = []
        for state in frontier:
            if state in seen:
                continue
            seen.add(state)
            order.append(state)
            nxt.extend(automaton.successors(state))
        frontier = sorted(set(nxt) - seen)
    # Unreachable states (possible in hand-built automata) go last.
    order.extend(s for s in range(n) if s not in seen)
    return [order[i:i + block_size] for i in range(0, n, block_size)]


def refine_blocks(
    automaton: HomogeneousAutomaton,
    blocks: list[list[int]],
    max_passes: int = 4,
) -> list[list[int]]:
    """Greedy refinement: swap states between blocks to cut global pairs.

    Repeatedly tries swapping pairs of states in different blocks and
    keeps a swap when it strictly reduces the distinct inter-block pair
    count.  Block sizes are preserved.  A few passes suffice on
    regex-shaped automata.

    The pair count is kept incrementally: an edge count per (source
    block, target block) pair, of which the nonzero off-diagonal
    entries are the distinct pairs.  A trial moves only the edges of
    its two states, and a rejected trial moves them back.
    """
    routing = automaton.routing_matrix()
    blocks = [list(b) for b in blocks]
    n = automaton.n_states
    block_of = [0] * n
    for b, members in enumerate(blocks):
        for s in members:
            block_of[s] = b
    src, dst = np.nonzero(routing)
    edges = list(zip(src.tolist(), dst.tolist()))
    touching: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for u, v in edges:
        touching[u].append((u, v))
        if v != u:
            touching[v].append((u, v))
    counts = [[0] * len(blocks) for _ in blocks]
    distinct = 0

    def shift(moved: list[tuple[int, int]], step: int) -> None:
        """Add ``step`` to the pair count of every edge in ``moved``."""
        nonlocal distinct
        for u, v in moved:
            a, b = block_of[u], block_of[v]
            if a != b:
                row = counts[a]
                before = row[b]
                row[b] = before + step
                if before == 0:
                    distinct += 1
                elif before + step == 0:
                    distinct -= 1

    shift(edges, 1)
    best = distinct

    for _ in range(max_passes):
        improved = False
        for b1 in range(len(blocks)):
            for b2 in range(b1 + 1, len(blocks)):
                for i in range(len(blocks[b1])):
                    for j in range(len(blocks[b2])):
                        # Read both occupants at each trial: a kept
                        # swap moves the state that sat in slot i.
                        s1, s2 = blocks[b1][i], blocks[b2][j]
                        moved = touching[s1] + [
                            e for e in touching[s2] if s1 not in e]
                        shift(moved, -1)
                        block_of[s1], block_of[s2] = b2, b1
                        shift(moved, 1)
                        if distinct < best:
                            best = distinct
                            blocks[b1][i], blocks[b2][j] = s2, s1
                            improved = True
                        else:
                            shift(moved, -1)
                            block_of[s1], block_of[s2] = b1, b2
                            shift(moved, 1)
        if not improved:
            break
    return blocks


def place(
    automaton: HomogeneousAutomaton,
    block_size: int,
    refine: bool = True,
) -> list[list[int]]:
    """BFS packing followed by optional greedy refinement."""
    blocks = bfs_blocks(automaton, block_size)
    if refine and len(blocks) > 1:
        blocks = refine_blocks(automaton, blocks)
    return blocks
