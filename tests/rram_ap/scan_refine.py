"""The rescanning block refinement: the oracle for ``refine_blocks``.

This is how ``repro.rram_ap.placement.refine_blocks`` scored a trial
swap before it kept its pair counts incrementally: it recounted the
distinct inter-block pairs over every routing edge, once per trial.
It tries the same swaps in the same order and keeps one exactly when
the full recount strictly falls, so the package's refinement must
return the very same block lists.
"""

from __future__ import annotations

import numpy as np

from repro.automata.homogeneous import HomogeneousAutomaton


def _distinct_pairs(
    routing: np.ndarray, block_of: np.ndarray
) -> set[tuple[int, int]]:
    src, dst = np.nonzero(routing)
    return {
        (int(block_of[s]), int(block_of[d]))
        for s, d in zip(src, dst)
        if block_of[s] != block_of[d]
    }


def refine_blocks(
    automaton: HomogeneousAutomaton,
    blocks: list[list[int]],
    max_passes: int = 4,
) -> list[list[int]]:
    """Swap states between blocks while the full recount falls."""
    routing = automaton.routing_matrix()
    blocks = [list(b) for b in blocks]
    n = automaton.n_states
    block_of = np.empty(n, dtype=int)
    for b, members in enumerate(blocks):
        for s in members:
            block_of[s] = b
    best = len(_distinct_pairs(routing, block_of))

    for _ in range(max_passes):
        improved = False
        for b1 in range(len(blocks)):
            for b2 in range(b1 + 1, len(blocks)):
                for i in range(len(blocks[b1])):
                    for j in range(len(blocks[b2])):
                        s1, s2 = blocks[b1][i], blocks[b2][j]
                        block_of[s1], block_of[s2] = b2, b1
                        cost = len(_distinct_pairs(routing, block_of))
                        if cost < best:
                            best = cost
                            blocks[b1][i], blocks[b2][j] = s2, s1
                            improved = True
                        else:
                            block_of[s1], block_of[s2] = b1, b2
        if not improved:
            break
    return blocks
