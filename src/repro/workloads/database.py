"""Bitmap-index database workloads (FastBit-style, paper ref [17]).

Database management is one of the paper's named MVP applications: bitmap
indices answer analytical predicates with bulk bitwise AND/OR over long
bit vectors -- exactly the operation scouting logic performs in-place.
This module builds a categorical table, derives its bitmap index, poses
random conjunction/disjunction queries, and lowers them to MVP programs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.mvp.isa import Instruction

__all__ = ["BitmapIndex", "Query", "evaluate_query", "lower_query",
           "random_table", "random_query"]


def random_table(
    rng: np.random.Generator,
    n_rows: int,
    cardinalities: list[int],
) -> np.ndarray:
    """A categorical table: column j takes values in range(cardinalities[j])."""
    if n_rows < 1 or not cardinalities:
        raise ValueError("need rows and at least one column")
    columns = [
        rng.integers(0, card, size=n_rows) for card in cardinalities
    ]
    return np.stack(columns, axis=1)


@dataclasses.dataclass(frozen=True)
class Query:
    """A conjunction of per-column disjunctions (CNF over equality preds).

    ``terms[j]`` is a list of (column, value) pairs OR-ed together; terms
    are AND-ed.  Example: (dept IN {2, 5}) AND (region = 1).
    """

    terms: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a query needs at least one term")
        for term in self.terms:
            if not term:
                raise ValueError("empty disjunction term")


class BitmapIndex:
    """Equality-encoded bitmap index over a categorical table.

    Bitmaps are computed when asked for, one column compare each: a
    query reads a handful of the index's bitmaps, so none is built
    ahead of use.

    Args:
        table: (n_rows, n_cols) integer matrix.
    """

    def __init__(self, table: np.ndarray) -> None:
        table = np.asarray(table)
        if table.ndim != 2:
            raise ValueError("table must be 2-D")
        self.table = table
        self.n_rows, self.n_cols = table.shape

    def bitmap(self, column: int, value: int) -> np.ndarray:
        """The row mask of one equality predicate (all-zero if absent).

        Raises:
            IndexError: if the table has no column ``column``.
        """
        if not 0 <= column < self.n_cols:
            raise IndexError(
                f"column {column} out of range [0, {self.n_cols})")
        return self.table[:, column] == value

    # -- golden evaluation ---------------------------------------------------

    def evaluate(self, query: Query) -> np.ndarray:
        """Reference CNF evaluation with numpy."""
        return evaluate_query(query, self.bitmap, (self.n_rows,))

    def count(self, query: Query) -> int:
        return int(self.evaluate(query).sum())

    # -- MVP lowering ------------------------------------------------------------

    def to_mvp_program(self, query: Query) -> tuple[list[Instruction], int]:
        """Lower a query to MVP macro-instructions.

        Layout: each needed bitmap is VLOADed into a row; each OR term is
        computed with one multi-row VOR and VSTOREd to a scratch row; the
        final AND combines the scratch rows; POPCOUNT returns the hit
        count.

        Returns:
            (program, rows_used).  The program ends with a POPCOUNT whose
            result equals :meth:`count`.
        """
        return lower_query(query, self.bitmap)


def evaluate_query(query: Query, bitmap_fetch, shape) -> np.ndarray:
    """Evaluate a CNF query over the row masks ``bitmap_fetch`` returns.

    The evaluation behind :meth:`BitmapIndex.evaluate`, parameterized
    over the bitmap source like :func:`lower_query`, so a stack of
    tables evaluates in one pass over (B, n_rows) masks.

    Args:
        query: the CNF query.
        bitmap_fetch: ``(column, value) -> bool array`` of ``shape``.
        shape: the mask shape, ``(n_rows,)`` or ``(B, n_rows)``.

    Returns:
        The bool hit mask, of ``shape``.
    """
    result = np.ones(shape, dtype=bool)
    for term in query.terms:
        disjunct = np.zeros(shape, dtype=bool)
        for column, value in term:
            disjunct |= bitmap_fetch(column, value)
        result &= disjunct
    return result


def lower_query(
    query: Query,
    bitmap_fetch,
) -> tuple[list[Instruction], int]:
    """Lower a CNF query to MVP macro-instructions.

    The row-allocation scheme behind :meth:`BitmapIndex.to_mvp_program`,
    parameterized over the bitmap source so batched executions can VLOAD
    stacked (B, n_rows) payloads through the identical program structure.

    Args:
        query: the CNF query.
        bitmap_fetch: ``(column, value) -> array`` returning the VLOAD
            payload for one equality predicate -- a flat (n_rows,) word
            or a (B, n_rows) per-item matrix.

    Returns:
        (program, rows_used); the program ends with a POPCOUNT.
    """
    program: list[Instruction] = []
    row = 0
    bitmap_rows: dict[tuple[int, int], int] = {}
    for term in query.terms:
        for key in term:
            if key not in bitmap_rows:
                bitmap_rows[key] = row
                program.append(Instruction.vload(row, bitmap_fetch(*key)))
                row += 1
    term_rows: list[int] = []
    for term in query.terms:
        source_rows = [bitmap_rows[key] for key in term]
        if len(source_rows) == 1:
            term_rows.append(source_rows[0])
            continue
        program.append(Instruction.vor(*source_rows))
        program.append(Instruction.vstore(row))
        term_rows.append(row)
        row += 1
    program.append(Instruction.vand(*term_rows))
    program.append(Instruction.popcount())
    return program, row


def random_query(
    rng: np.random.Generator,
    cardinalities: list[int],
    n_terms: int = 2,
    max_disjuncts: int = 3,
) -> Query:
    """A random CNF query over distinct columns."""
    if n_terms > len(cardinalities):
        raise ValueError("more terms than columns")
    columns = rng.choice(len(cardinalities), size=n_terms, replace=False)
    terms = []
    for col in columns:
        card = cardinalities[int(col)]
        k = int(rng.integers(1, min(max_disjuncts, card) + 1))
        values = rng.choice(card, size=k, replace=False)
        terms.append(tuple((int(col), int(v)) for v in values))
    return Query(terms=tuple(terms))
