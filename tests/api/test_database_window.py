"""The database adapter's stacked window against a per-table oracle.

``DatabaseAdapter`` keeps a window's tables as one stacked array,
builds each VLOAD payload with one compare over the stack and computes
the golden counts with one CNF evaluation over it.  The oracle here
redraws every table on its own, the way a lone table is drawn
(``random_table`` over the item's stream), and asks a per-table
:class:`BitmapIndex` for each bitmap and count.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ScenarioSpec, adapter_for
from repro.workloads import BitmapIndex, random_table
from repro.workloads.database import lower_query

CARDINALITIES = [8, 5, 4]


@st.composite
def windowed_specs(draw):
    """A database spec and a batch window that fits it."""
    batch = draw(st.integers(1, 6))
    spec = ScenarioSpec(engine="mvp_batched", workload="database",
                        size=draw(st.integers(1, 64)),
                        items=draw(st.integers(1, 3)), batch=batch,
                        seed=draw(st.integers(0, 2**16)))
    offset = draw(st.integers(0, batch - 1))
    count = draw(st.integers(1, batch - offset))
    return spec, (offset, count)


def oracle_tables(adapter) -> list[np.ndarray]:
    """Each windowed item's table, drawn alone from its item stream."""
    return [random_table(adapter.item_rng(i), adapter.spec.size,
                         CARDINALITIES)
            for i in adapter.batch_indices]


def oracle_program(query, tables):
    """The lowering with per-table bitmaps: flat payloads for one
    table, ``np.stack`` of the per-table bitmaps for more."""
    indexes = [BitmapIndex(table) for table in tables]
    if len(indexes) == 1:
        return indexes[0].to_mvp_program(query)
    return lower_query(query, lambda column, value: np.stack(
        [index.bitmap(column, value) for index in indexes]))


class TestStackedWindowOracle:
    @settings(max_examples=60)
    @given(windowed_specs())
    def test_payloads_and_golden_counts_match_per_table(self, drawn):
        spec, window = drawn
        adapter = adapter_for(spec, "mvp_batched", window=window)
        tables = oracle_tables(adapter)
        for query, (program, rows_used) in zip(
                adapter._queries, adapter._programs):  # white-box
            want_program, want_rows = oracle_program(query, tables)
            assert program == want_program
            assert rows_used == want_rows
        assert adapter._golden_counts() == [
            [BitmapIndex(table).count(query) for table in tables]
            for query in adapter._queries
        ]

    @settings(max_examples=60)
    @given(windowed_specs())
    def test_window_tables_are_slices_of_the_full_batch(self, drawn):
        spec, (offset, count) = drawn
        full = adapter_for(spec, "mvp_batched")
        window = adapter_for(spec, "mvp_batched", window=(offset, count))
        np.testing.assert_array_equal(
            window._columns, full._columns[offset:offset + count])
        for columns, table in zip(window._columns, oracle_tables(window)):
            np.testing.assert_array_equal(columns.T, table)

    @settings(max_examples=30)
    @given(windowed_specs())
    def test_absent_values_give_all_zero_bitmaps(self, drawn):
        spec, window = drawn
        adapter = adapter_for(spec, "mvp_batched", window=window)
        for table in oracle_tables(adapter):
            index = BitmapIndex(table)
            for column, card in enumerate(CARDINALITIES):
                for value in (-1, card):
                    bitmap = index.bitmap(column, value)
                    assert bitmap.shape == (spec.size,)
                    assert not bitmap.any()
                for value in range(card):
                    present = (table[:, column] == value).any()
                    assert index.bitmap(column, value).any() == present
