"""IR-drop-aware crossbar reads via a sparse resistive-network solve.

The ideal read model in :class:`~repro.crossbar.array.Crossbar` assumes
perfect wires.  Real crossbars have wire resistance per cell pitch, which
robs far cells of read voltage (IR drop) and squeezes sense margins --
one of the practical limits on crossbar size.  This module solves the full
resistive network:

* one node per (row wire, column position) and per (column wire, row
  position);
* cell resistances bridge a row node to the column node at the same
  coordinate;
* wire segments connect adjacent nodes along each wire;
* activated rows are driven at Vr from their left edge; all columns end in
  a virtual-ground sense amplifier at the bottom edge.

The system is assembled as a sparse Laplacian and solved with SciPy.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.crossbar.array import Crossbar

__all__ = ["WireParameters", "ir_drop_column_currents", "ir_drop_loss"]


@dataclasses.dataclass(frozen=True)
class WireParameters:
    """Interconnect resistance per cell pitch.

    Attributes:
        r_row_segment: row (word-line) wire resistance per cell, ohms.
        r_col_segment: column (bit-line) wire resistance per cell, ohms.
    """

    r_row_segment: float = 2.5
    r_col_segment: float = 2.5

    def __post_init__(self) -> None:
        if self.r_row_segment <= 0 or self.r_col_segment <= 0:
            raise ValueError("wire segment resistances must be positive")


def ir_drop_column_currents(
    crossbar: Crossbar,
    active_rows: list[int],
    wires: WireParameters | None = None,
) -> np.ndarray:
    """Column read currents including wire IR drop.

    Args:
        crossbar: the array being read.
        active_rows: word lines driven at the read voltage (from the left
            edge); inactive rows are left floating (their driver is off and,
            with a 1T1R cell, the access transistor isolates the cell).
        wires: interconnect parameters.

    Returns:
        Array of shape (cols,): current into each column's sense amplifier.
    """
    # Imported here: no other read needs SciPy, and it is slow to load.
    import scipy.sparse
    import scipy.sparse.linalg

    wires = wires or WireParameters()
    rows, cols = crossbar.shape
    active = sorted(set(active_rows))
    for row in active:
        if not 0 <= row < rows:
            raise IndexError(f"row {row} out of range")
    if not active:
        raise ValueError("at least one row must be activated")

    n_active = len(active)
    # Node numbering: row nodes first (n_active x cols), then column nodes
    # (cols x n_active slots are not needed -- column wires span all rows,
    # but only active rows inject current; we still model the full column
    # length for wire resistance using per-active-row segments plus the
    # remaining run to the SA lumped below).
    n_row_nodes = n_active * cols
    n_col_nodes = n_active * cols
    n = n_row_nodes + n_col_nodes

    def row_node(i: int, j: int) -> int:
        return i * cols + j

    def col_node(i: int, j: int) -> int:
        return n_row_nodes + i * cols + j

    entries_i: list[int] = []
    entries_j: list[int] = []
    entries_v: list[float] = []
    rhs = np.zeros(n)

    def stamp(a: int, b: int, g: float) -> None:
        """Conductance between nodes a, b (either may be -1 = driven rail)."""
        if a >= 0:
            entries_i.append(a)
            entries_j.append(a)
            entries_v.append(g)
        if b >= 0:
            entries_i.append(b)
            entries_j.append(b)
            entries_v.append(g)
        if a >= 0 and b >= 0:
            entries_i.extend((a, b))
            entries_j.extend((b, a))
            entries_v.extend((-g, -g))

    vr = crossbar.read_voltage
    g_row = 1.0 / wires.r_row_segment
    g_col = 1.0 / wires.r_col_segment

    for idx, row in enumerate(active):
        # Row driver at the left edge: Vr through the first wire segment.
        first = row_node(idx, 0)
        stamp(first, -1, g_row)
        rhs[first] += g_row * vr
        # Row wire segments.
        for j in range(cols - 1):
            stamp(row_node(idx, j), row_node(idx, j + 1), g_row)
        # Cells bridge row to column nodes.
        for j in range(cols):
            g_cell = 1.0 / crossbar.resistances[row, j]
            stamp(row_node(idx, j), col_node(idx, j), g_cell)

    # Column wires: chain active-row taps top-to-bottom, then to the SA
    # (virtual ground).  Between adjacent active rows the wire spans their
    # physical separation; below the last active row it runs to row `rows`.
    for j in range(cols):
        for idx in range(n_active - 1):
            span = active[idx + 1] - active[idx]
            stamp(col_node(idx, j), col_node(idx + 1, j), g_col / span)
        # Last tap to the SA at the array bottom.
        span = rows - active[-1]
        g_last = g_col / max(span, 1)
        stamp(col_node(n_active - 1, j), -1, g_last)
        # (virtual ground: no rhs contribution, rail voltage is 0)

    laplacian = scipy.sparse.csr_matrix(
        (entries_v, (entries_i, entries_j)), shape=(n, n)
    )
    voltages = scipy.sparse.linalg.spsolve(laplacian, rhs)

    # SA current = current through the last column segment into ground.
    currents = np.empty(cols)
    for j in range(cols):
        v_tap = voltages[col_node(n_active - 1, j)]
        span = rows - active[-1]
        currents[j] = v_tap * (g_col / max(span, 1))
    return currents


def ir_drop_loss(
    crossbar: Crossbar,
    active_rows: list[int],
    wires: WireParameters | None = None,
) -> np.ndarray:
    """Per-column current loss ratio versus the ideal (zero-wire) read.

    Returns ``1 - I_real / I_ideal`` per column; the Fig. 3 margin bench
    uses the worst column as the IR-drop penalty of a given array size.
    """
    ideal = crossbar.column_currents(active_rows)
    real = ir_drop_column_currents(crossbar, active_rows, wires)
    return 1.0 - real / ideal
