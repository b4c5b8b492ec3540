"""Structure-of-arrays execution kernel for the analog MVM pipeline.

The one implementation of an analog matvec.  A per-read pipeline would
walk a Python loop nest -- samples x DAC slices x tiles -- performing
one small NumPy read per (slice, tile); this kernel uses a
structure-of-arrays layout instead: every tile's cell conductances are
stacked into one padded ``(tiles, rows, cols)`` tensor (``cols =
out_cols * 2 * weight_bits`` bit lines, i.e. the bit-plane axis is
unrolled into the physical column axis exactly as it is on the
fabric), and a whole group of members' batches executes as a handful
of whole-tensor operations, a solo layer being a group of one.

Each read -- one (sample, DAC slice, row band) activation -- is keyed
by its fabric, its row band and its active-row pattern, and one
``np.unique`` finds the distinct keys (reads of tiles too tall for an
int64 key are each their own).  Only those are evaluated:
pattern-table conductance sums for the read currents, one vectorized
ADC conversion and one shift-and-add contraction over the differential
bit planes, each against the tiles of the key's band.  Every read then
gathers its key's folded planes, clip counts and active-row count back
through the inverse index, and one ordered reduction performs the
partial-sum accumulation.  Repeats are common -- ledger twins read one
fabric, and a narrow DAC slice has few patterns -- but the ledger still
charges every read, as the paper's energy and latency accounting
requires.

**Bit-for-bit contract.**  The kernel is not "close to" that per-read
pipeline -- it is exactly it, for every sample, fabric and device
window (the equivalence suite in ``tests/mvm/test_kernel_equivalence``
pins this against the scalar loop kept in
``tests/mvm/scalar_pipeline.py``, with ideal reads and with per-read
crossbar reads on faulty, variable and wire-drop fabrics):

* row sums: each read folds its active rows' conductances in ascending
  row order from 0.0 -- a doubling table over the lowest rows'
  patterns, then one masked in-place add per higher row -- which is
  the crossbar's ``G[active_rows, :].sum(axis=0)`` bit for bit wherever
  the table split falls (inactive rows add nothing; the per-read
  loop's +0.0 addends are exact no-ops);
* wire IR drop: a read's currents then depend on the whole activation
  pattern, not on a sum of per-row terms, so on a fabric with
  :attr:`TileStack.has_wire_drop` each distinct read takes them from
  its tiles' own nodal solve instead of the row-sum table -- the one
  step that differs by fabric;
* deduplication: a read's currents, codes and clip flags are a
  function of (fabric, tile, pattern) alone -- the row sum or nodal
  solve above, the elementwise ADC, the exact plane fold -- so
  evaluating each key once and gathering it per read is the per-read
  computation, in any chunk;
* the ADC applies the identical elementwise expression through
  :meth:`repro.mvm.pipeline.ADCModel.convert_codes`;
* shift-and-add folds integer-valued floats scaled by exact powers of
  two (every intermediate is exactly representable), so the plane
  contraction is exact in any association order;
* partial sums accumulate through an ordered ``(slice, row-band)``
  loop that reproduces the legacy slice-major, grid-order accumulation
  sequence.

Zero-padding is benign by construction: padded rows are never
activated, padded columns have zero conductance, so their codes are
zero, their baseline-subtracted raw codes clip at zero, and their
(sliced-off) fold contributions are exact zeros.

The digital reference runs the same distinct-read kernel on the tiles'
ideal conductances -- unless every ideal code provably equals its
count of ON cells (:attr:`TileStack.exact_reference`).  Then currents
and ADC drop out, and the folded planes are one exact integer matvec
of the activation masks with the tiles' quantized weights, so the
reference shares neither the row sums nor the converter with the
fabric read it checks.  The reference never reads a fabric, so it never
solves a wire network.
"""

from __future__ import annotations

import numpy as np

from repro.mvm.mapper import CrossbarTile, MVMConfig
from repro.mvm.pipeline import ADCModel, bit_slices_batch
from repro.obs.trace import span

__all__ = ["TileStack"]

#: Soft ceiling on a chunk's largest per-read buffers (float64
#: elements): one ``max(rows, cols)``-wide row per (member, tile,
#: sample, slice) covers the activation masks and, should every read be
#: distinct, the distinct reads' currents and codes.  Batches over it
#: run in sample chunks (invisible to the numerics -- samples are
#: independent, chunks run in order, and a read's result depends on
#: its key alone, so deduplicating per chunk changes nothing).
_WORKSPACE_ELEMENTS = 1 << 21


class TileStack:
    """All of one layer's tiles stacked into padded SoA tensors.

    Args:
        tiles: the mapper's ``(row_offset, col_offset, tile)`` triples
            in grid order (row bands outermost).
        out_dim: logical output length of the mapped matrix.
        in_dim: logical input length of the mapped matrix.
        config: the layer's quantization/tiling knobs.
        adc: the layer's ADC model.

    Attributes:
        n_tiles: stacked tile count.
        bands: distinct input row bands, in offset order.
        exact_reference: True when the digital reference is the exact
            integer matvec; False when it converts the ideal
            conductances' currents through the ADC.
        reference_operand: what the reference path reads: the
            ``(tiles, rows, out_cols)`` quantized weights in the exact
            regime, else the ``(tiles, rows, cols)`` ideal
            conductances.
    """

    def __init__(
        self,
        tiles: list[tuple[int, int, CrossbarTile]],
        out_dim: int,
        in_dim: int,
        config: MVMConfig,
        adc: ADCModel,
    ) -> None:
        self._tiles = tiles
        self.out_dim = out_dim
        self.in_dim = in_dim
        self.config = config
        self.adc = adc
        self.n_tiles = len(tiles)

        planes = config.planes_per_col
        self._max_rows = max(tile.rows for _, _, tile in tiles)
        self._max_out = max(tile.out_cols for _, _, tile in tiles)
        self._cols = self._max_out * planes

        # Row bands: tiles sharing a row offset share activation masks
        # and leakage baselines; band order is ascending offsets, which
        # is also the grid's outer iteration order.
        band_offsets: list[int] = []
        for row0, _, _ in tiles:
            if row0 not in band_offsets:
                band_offsets.append(row0)
        self.bands = band_offsets
        band_index = {row0: b for b, row0 in enumerate(band_offsets)}
        self._band_rows = np.array(
            [next(t.rows for r0, _, t in tiles if r0 == row0)
             for row0 in band_offsets], dtype=np.int64)
        self._band_of_tile = np.array(
            [band_index[row0] for row0, _, _ in tiles], dtype=np.int64)
        # The mapper splits every band into the same column tiles, band
        # by band, so band ``b``'s tiles are row ``b`` of this grid.
        self._band_tiles = np.arange(self.n_tiles).reshape(
            len(band_offsets), -1)
        self._col0 = [col0 for _, col0, _ in tiles]
        self._out_cols = [tile.out_cols for _, _, tile in tiles]
        self._read_voltage = tiles[0][2].crossbar.read_voltage

        # Shift-and-add constants: the shared pair vector and one
        # ``scale * gain`` scalar per tile.  The gain undoes the ADC's
        # window bias (an ideal read of ``n`` ON cells codes to ``n *
        # (1 - r_on/r_off)``), so the partial sum estimates the count.
        self._pair_vector = tiles[0][2]._pair_vector
        scale_gain = []
        leak_ratio = 0.0
        for _, _, tile in tiles:
            params = tile.crossbar.params
            gain = 1.0 / (1.0 - params.r_on / params.r_off)
            scale_gain.append(tile.scale * gain)
            leak_ratio = max(leak_ratio, params.r_on / params.r_off)
        self._scale_gain = np.array(scale_gain, dtype=float)

        # The reference regime.  An ideal read of ``k`` ON cells
        # converts to ``rint(k * (1 - r_on/r_off))``; while ``k *
        # r_on/r_off < 0.25`` that value sits more than 0.25 from a
        # rounding boundary -- far beyond any float error -- so the
        # code is exactly ``k``, and ``k <= max_rows <= max_code``
        # never clips.  Every code then equals its ON-cell count, and
        # the shift-and-added reference is the integer matvec ``masks
        # @ quantized`` (see _execute_chunk).  Outside the regime
        # (narrow ADCs, tie windows, small windows at this height) the
        # reference synthesizes the ideal currents through the ADC.
        self.exact_reference = (
            self._max_rows <= adc.max_code
            and self._max_rows * leak_ratio < 0.25
        )
        if self.exact_reference:
            self.reference_operand = np.zeros(
                (self.n_tiles, self._max_rows, self._max_out),
                dtype=float)
            for t, (_, _, tile) in enumerate(tiles):
                self.reference_operand[t, :tile.rows, :tile.out_cols] \
                    = tile.quantized.T
        else:
            self.reference_operand = self._stack(
                [tile._ideal_conductance for _, _, tile in tiles])
        # True when the single row band spans the full logical input:
        # activation slices then *are* the band masks (no padded rows),
        # so execution can broadcast them instead of copying.
        self._whole_band = (
            len(self.bands) == 1
            and int(self._band_rows[0]) == self._max_rows
            and self.in_dim == self._max_rows
        )

    def geometry_key(self) -> tuple:
        """Hashable layout signature; equal keys mean two stacks can
        execute as one group (same tiling, bands, converters, read
        voltage, read model and reference regime -- fabrics and scales
        are per-member state)."""
        return (
            self.out_dim, self.in_dim, self._max_rows, self._cols,
            tuple(self.bands), tuple(int(r) for r in self._band_rows),
            tuple(self._col0), tuple(self._out_cols),
            self._read_voltage, self.config, self.adc,
            self.exact_reference, self.has_wire_drop,
        )

    def _stack(self, per_tile: list[np.ndarray]) -> np.ndarray:
        """Zero-pad per-tile ``(rows, cols)`` arrays into one tensor."""
        stacked = np.zeros(
            (self.n_tiles, self._max_rows, self._cols), dtype=float)
        for t, array in enumerate(per_tile):
            rows, cols = array.shape
            stacked[t, :rows, :cols] = array
        return stacked

    def fabric_conductances(self) -> np.ndarray:
        """The programmed fabrics' cell conductances, freshly stacked.

        Recomputed per batch (it is a tiny elementwise pass) so fault
        injection, variability spread and any later fabric mutation are
        always reflected; the elementwise ``1 / R`` matches the operand
        :meth:`repro.crossbar.array.Crossbar.column_currents` feeds its
        reduction.
        """
        return self._stack(
            [1.0 / tile.crossbar.resistances
             for _, _, tile in self._tiles])

    @property
    def has_wire_drop(self) -> bool:
        """True if any tile's fabric solves a wire IR-drop network."""
        return any(getattr(tile.crossbar, "wires", None) is not None
                   for _, _, tile in self._tiles)

    # -- execution ---------------------------------------------------------------

    def execute_group(
        self,
        x_int: np.ndarray,
        scales: np.ndarray,
        electrical: bool,
        stacks: list["TileStack"],
    ) -> tuple[np.ndarray, np.ndarray | None, np.ndarray | None]:
        """Run same-geometry members' batches as one pass.

        The one analog matvec kernel: member ``i`` (one accelerator's
        layer, with its own fabric and tile scales) executes its own
        batch, and every tensor simply carries the member axis in
        front, a solo layer being a group of one.  Members never mix in
        any reduction, and share a distinct read's evaluation only when
        they share its fabric, whose result depends on the key alone --
        so grouping is a pure layout change (the equivalence suite pins
        grouped == solo bit-for-bit).

        Args:
            x_int: ``(members, batch, in_dim)`` quantized DAC levels.
            scales: ``(members, batch)`` per-sample DAC scales.
            electrical: read the programmed fabric (True) or compute
                the digital reference (False): the exact integer
                matvec when :attr:`exact_reference`, else the ideal
                conductances' currents through the ADC.
            stacks: the members' stacks, of this stack's geometry, in
                member order -- or one stack that every member reads
                (ledger twins share one mapped fabric).

        Returns:
            ``(y, counted, tile_saturations)`` shaped ``(members,
            batch, out_dim)`` / ``(members, tiles, batch, slices)`` /
            ``(members, tiles)``: the outputs, the mask of performed
            reads and the per-tile saturation totals.  The ledger pair
            is None on the reference path, which keeps no ledger.
        """
        members, batch = x_int.shape[:2]
        s_bits = self.config.dac_bits
        y = np.zeros((members, batch, self.out_dim), dtype=float)
        counted = np.zeros((members, self.n_tiles, batch, s_bits),
                           dtype=bool) if electrical else None
        tile_sats = np.zeros((members, self.n_tiles), dtype=np.int64)
        if batch == 0 or members == 0:
            return y, counted, tile_sats if electrical else None
        # Per fabric, the stacked ``(tiles, rows, cols)`` conductances
        # to read -- the programmed ones, or the ideal ones outside the
        # exact reference -- or the exact reference's ``(tiles, rows,
        # out_cols)`` quantized weights, and the per-tile scale * gain.
        operand = np.stack([
            stack.fabric_conductances() if electrical
            else stack.reference_operand for stack in stacks])
        scale_gain = np.stack([stack._scale_gain for stack in stacks])
        # Stage spans are whole-tensor (one per chunk, not per sample),
        # so tracing never perturbs the numerics and enabled overhead
        # stays within the obs bench's <5% bar.
        with span("mvm.kernel", members=members, batch=batch,
                  tiles=self.n_tiles):
            with span("mvm.dac"):
                slices = bit_slices_batch(
                    x_int.reshape(members * batch, self.in_dim), s_bits,
                ).reshape(members, batch, s_bits, self.in_dim)

            per_sample = (members * self.n_tiles * s_bits
                          * max(self._max_rows, self._cols))
            chunk = max(1, _WORKSPACE_ELEMENTS // max(1, per_sample))
            for m0 in range(0, batch, chunk):
                window = slice(m0, m0 + chunk)
                self._execute_chunk(
                    slices[:, window], scales[:, window], stacks,
                    operand, scale_gain, y[:, window],
                    counted[:, :, window] if electrical else None,
                    tile_sats)
        return y, counted, tile_sats if electrical else None

    def _execute_chunk(
        self, slices: np.ndarray, scales: np.ndarray,
        stacks: list["TileStack"], operand: np.ndarray,
        scale_gain: np.ndarray, y: np.ndarray,
        counted: np.ndarray | None, tile_sats: np.ndarray,
    ) -> None:
        """One sample chunk: masks -> distinct reads -> codes -> partials
        (on the exact reference path: masks @ weights -> partials).

        Writes the chunk's scaled outputs into ``y`` and, on the
        electrical path (``counted`` given), its performed-read mask
        into ``counted`` and its saturations onto ``tile_sats``.
        """
        members, m = slices.shape[:2]
        s_bits = self.config.dac_bits
        n_bands, per_band = self._band_tiles.shape
        electrical = counted is not None
        exact = not electrical and self.exact_reference

        with span("mvm.accumulate"):
            # (members, bands, m, slices, rows): each band's activation
            # masks, padded rows never active.  When the single band
            # spans the whole input the slices already are the masks.
            if self._whole_band:
                band_masks = slices[:, None]
            else:
                band_masks = np.zeros(
                    (members, n_bands, m, s_bits, self._max_rows),
                    dtype=bool)
                for b, row0 in enumerate(self.bands):
                    rows = int(self._band_rows[b])
                    band_masks[:, b, :, :, :rows] = \
                        slices[:, :, :, row0:row0 + rows]
            if exact:
                # Exact reference: every code is its ON-cell count, so
                # the folded planes are the integer matvec of the masks
                # with the signed quantized weights.  Operands are 0/1
                # and integers, every partial sum an integer far below
                # 2**53, so any BLAS order yields the same bits as the
                # ADC path's fold.
                if band_masks.shape[1] != 1:
                    band_masks = band_masks[:, self._band_of_tile]
                folded = (
                    band_masks.reshape(
                        members, -1, m * s_bits, self._max_rows,
                    ).astype(float) @ operand
                ).reshape(members, n_bands, per_band, m, s_bits,
                          self._max_out).transpose(0, 1, 3, 4, 2, 5)
            else:
                patterns, fabric, band, inverse = self._distinct_reads(
                    band_masks, keyed=len(stacks) == members > 1)
                active = patterns.sum(axis=1, dtype=np.int64)
                if electrical and self.has_wire_drop:
                    currents = self._solved_currents(
                        patterns, stacks, fabric, band)
                else:
                    currents = self._row_sums(
                        patterns, operand, fabric, band,
                        reads=members * m * s_bits)
                    currents *= self._read_voltage
            # Free the stage's big temporaries while its span is still
            # open: teardown stays attributed to the stage that paid
            # for the allocation.
            del band_masks

        if not exact:
            with span("mvm.adc"):
                codes, clipped = self.adc.convert_codes(
                    currents, active[:, None])
                del currents

        with span("mvm.shift_add"):
            if not exact:
                # Fold each distinct read's differential bit planes
                # (exact: integer codes scaled by exact powers of two),
                # then hand every read its key's folded planes.
                folded = np.take(
                    (codes.reshape(-1, per_band, self._max_out,
                                   self.config.planes_per_col)
                     @ self._pair_vector).reshape(len(codes), -1),
                    inverse, axis=0,
                ).reshape(members, n_bands, m, s_bits, per_band,
                          self._max_out)
                del codes
            # (members, bands, m, slices, tiles-in-band, out_cols):
            # apply per-tile scale * gain, then the per-slice 2**s
            # weights.
            partial = folded * scale_gain.reshape(
                -1, n_bands, 1, 1, per_band, 1)
            partial *= 2.0 ** np.arange(s_bits).reshape(-1, 1, 1)
            del folded

            # Partial-sum accumulation in the legacy order: slice-major,
            # then grid (band) order.  Tiles within one (slice, band)
            # pair write disjoint output columns, so scattering then
            # accumulating the leading axis reproduces the per-read
            # accumulation sequence exactly; skipped (inactive) reads
            # contribute signed zeros, which are exact no-ops on the
            # accumulator.  The accumulation is an explicit ordered loop
            # (one whole-batch add per step): an axis reduction would go
            # pairwise -- and change last-ulp roundings -- whenever the
            # trailing axes collapse to stride 1.
            gathered = np.zeros(
                (members, s_bits, n_bands, m, self.out_dim), dtype=float)
            for t in range(self.n_tiles):
                col0, out_cols = self._col0[t], self._out_cols[t]
                b, j = divmod(t, per_band)
                gathered[:, :, b, :, col0:col0 + out_cols] \
                    = partial[:, b, :, :, j, :out_cols].transpose(
                        0, 2, 1, 3)
            gathered = gathered.reshape(members, -1, m, self.out_dim)
            for k in range(gathered.shape[1]):
                y += gathered[:, k]
            y *= scales[:, :, None]
            del partial, gathered

        if not electrical:
            return
        with span("mvm.ledger"):
            # Every read is charged, repeats included: the active-row
            # and clip counts of its key, gathered back per read.
            # Saturations count per conversion; inactive reads convert
            # nothing (their raw codes are exactly zero) and padded
            # columns clip at the bottom of the range, so the mask is
            # already confined to real conversions.
            counted[...] = (active[inverse] > 0)[:, self._band_of_tile]
            tile_sats += np.take(
                clipped.sum(axis=2), inverse, axis=0,
            ).sum(axis=(2, 3)).reshape(members, self.n_tiles)

    def _distinct_reads(
        self, band_masks: np.ndarray, keyed: bool
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Deduplicate a chunk's reads by (fabric, row band, pattern).

        A read's currents, codes and clip flags are a function of its
        fabric, its tile and its active-row pattern alone, so each
        distinct key is evaluated once against its band's tiles.  The
        key is one int64, the ``(fabric, band)`` prefix above the
        pattern bits, and the distinct patterns are decoded from the
        keys themselves.  Reads whose key overflows 63 bits (tiles over
        about 62 rows) are not deduplicated: each is its own distinct
        read, which is exact too.

        Args:
            band_masks: ``(members, bands, m, slices, rows)`` masks.
            keyed: True when every member reads its own fabric (the
                fabric joins the key); False when members share one
                (ledger twins, the reference operand).

        Returns:
            ``(patterns, fabric, band, inverse)``: the ``(D, rows)``
            distinct masks, their fabric and band indexes, and the
            ``(members, bands, m, slices)`` index of each read's key.
        """
        members, n_bands, m, s_bits, rows = band_masks.shape
        patterns = band_masks.reshape(-1, rows)
        groups = np.arange(members * n_bands) if keyed \
            else np.tile(np.arange(n_bands), members)
        group = np.repeat(groups, m * s_bits)
        if rows + int(groups[-1]).bit_length() <= 63:
            keys, inverse = np.unique(
                (group << rows)
                | (patterns.astype(np.int64)
                   @ (1 << np.arange(rows, dtype=np.int64))),
                return_inverse=True)
            group = keys >> rows
            patterns = np.unpackbits(
                keys.astype("<i8").view(np.uint8).reshape(-1, 8),
                axis=1, count=rows, bitorder="little").view(bool)
        else:
            inverse = np.arange(len(patterns))
        fabric = group // n_bands if keyed \
            else np.zeros(len(group), dtype=np.int64)
        return (patterns, fabric, group % n_bands,
                inverse.reshape(members, n_bands, m, s_bits))

    #: Row-pattern lookup tables cover at most this many rows; the
    #: remainder folds with masked adds.  2**bits table entries per
    #: tile, capped further by the element budget below.
    _TABLE_BITS = 12
    _TABLE_BUDGET = 1 << 22

    def _row_sums(
        self, patterns: np.ndarray, conductance: np.ndarray,
        fabric: np.ndarray, band: np.ndarray, reads: int,
    ) -> np.ndarray:
        """Conductance row sums of distinct reads, in per-read fold order.

        Each read accumulates its active rows' conductances by an
        ascending-row left fold from 0.0 (the per-read loop's order).  A
        fold over the lowest ``tb`` rows depends only on their
        activation bit pattern, so those are precomputed for every
        pattern with a doubling recurrence -- ``table[p] = table[p -
        msb(p)] + G[msb(p)]``, exactly the ascending fold since the
        highest bit is added last -- and gathered per read; rows above
        ``tb`` fold on top with masked in-place adds, one sequential
        addition each.  Inactive rows contribute nothing on either
        path, which matches the per-read sum bitwise: its +0.0 addends
        never change the non-negative accumulator.  The result is the
        same fold wherever the table split falls, so it depends on
        (fabric, tile, pattern) alone.

        Args:
            patterns: ``(D, rows)`` distinct activation masks.
            conductance: ``(members-or-1, tiles, rows, cols)`` cell
                conductances (one fabric shared by every member, e.g.
                ledger twins, or one per member).
            fabric: ``(D,)`` index of each read's fabric in
                ``conductance``.
            band: ``(D,)`` row band of each read.
            reads: the chunk's read count, which sizes the table.

        Returns:
            ``(D, tiles_per_band, cols)`` summed conductances against
            the tiles of each read's band.
        """
        i_c = conductance.shape[0]
        # Shrink the table until building it (2**tb patterns per
        # fabric-tile) is cheap relative to the reads it serves; each
        # level below max_rows trades one masked add per read.
        tb = min(self._TABLE_BITS, self._max_rows)
        while tb > 0 and (
                (i_c * self.n_tiles * self._cols) << tb
                > self._TABLE_BUDGET
                or (i_c << tb) > 2 * reads):
            tb -= 1
        table = np.zeros(
            (i_c, self.n_tiles, 1 << tb, self._cols), dtype=float)
        for b in range(tb):
            half = 1 << b
            table[:, :, half:2 * half] = (
                table[:, :, :half] + conductance[:, :, None, b, :])
        idx = patterns[:, :tb].astype(np.int64) \
            @ (1 << np.arange(tb, dtype=np.int64))
        fab = fabric[:, None]
        tiles = self._band_tiles[band]
        summed = table[fab, tiles, idx[:, None]]
        for r in range(tb, self._max_rows):
            np.add(summed, conductance[fab, tiles, r], out=summed,
                   where=patterns[:, r, None, None])
        return summed

    def _solved_currents(
        self, patterns: np.ndarray, stacks: list["TileStack"],
        fabric: np.ndarray, band: np.ndarray,
    ) -> np.ndarray:
        """Bit-line currents of distinct reads on wire-drop fabrics.

        A wire network couples every cell of a read, so its currents
        are no sum of per-row terms: each distinct read solves the
        nodal network of each tile in its band, through the fabric's
        own :meth:`~repro.crossbar.nonideal.NonidealCrossbar.
        column_currents`.  Inactive reads and padded columns stay zero,
        as on the table path.

        Args:
            patterns: ``(D, rows)`` distinct activation masks.
            stacks: the stacks ``fabric`` indexes.
            fabric: ``(D,)`` index of each read's fabric in ``stacks``.
            band: ``(D,)`` row band of each read.

        Returns:
            ``(D, tiles_per_band, cols)`` currents in amperes.
        """
        currents = np.zeros(
            (len(patterns), self._band_tiles.shape[1], self._cols))
        for d, pattern in enumerate(patterns):
            rows = np.flatnonzero(pattern).tolist()
            if not rows:
                continue
            tiles = stacks[fabric[d]]._tiles
            for j, t in enumerate(self._band_tiles[band[d]]):
                crossbar = tiles[t][2].crossbar
                currents[d, j, :crossbar.cols] = \
                    crossbar.column_currents(rows)
        return currents
