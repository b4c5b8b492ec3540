"""Tile-mapper contracts: quantization, differential pairs, tiling."""

import numpy as np
import pytest

from repro.crossbar.nonideal import NonidealCrossbar, NonidealitySpec
from repro.mvm.mapper import CrossbarTile, MVMConfig, map_matrix


def ideal_bits(tile):
    """The tile's intended 0/1 program (pre-fault, pre-spread), read
    white-box: the matrix it programs into its crossbar."""
    return tile._bit_matrix.copy()


class TestMVMConfig:
    def test_defaults_validate(self):
        config = MVMConfig()
        assert config.max_weight_level == 15
        assert config.planes_per_col == 8

    @pytest.mark.parametrize("field", ["weight_bits", "dac_bits",
                                       "adc_bits", "tile_rows",
                                       "tile_cols"])
    @pytest.mark.parametrize("bad", [0, -1, 1.5, True, "4"])
    def test_rejects_non_positive_and_non_int(self, field, bad):
        with pytest.raises(ValueError, match=field):
            MVMConfig(**{field: bad})

    def test_rejects_absurd_resolutions(self):
        with pytest.raises(ValueError, match="weight_bits"):
            MVMConfig(weight_bits=13)
        with pytest.raises(ValueError, match="adc_bits"):
            MVMConfig(adc_bits=17)

    def test_from_params_picks_only_its_keys(self):
        config = MVMConfig.from_params(
            {"weight_bits": 6, "motif": "TATAWR", "tile_rows": 8})
        assert config.weight_bits == 6
        assert config.tile_rows == 8
        assert config.dac_bits == MVMConfig().dac_bits


class TestCrossbarTile:
    def test_quantization_round_trips_within_half_lsb(self):
        rng = np.random.default_rng(0)
        block = rng.normal(0, 1, size=(5, 9))
        config = MVMConfig(weight_bits=8, tile_rows=16, tile_cols=8)
        tile = CrossbarTile(block, config)
        recovered = tile.quantized * tile.scale
        assert np.abs(recovered - block).max() <= tile.scale / 2 + 1e-12

    def test_per_tile_scale_tracks_block_peak(self):
        config = MVMConfig(weight_bits=4)
        small = CrossbarTile(np.full((2, 2), 0.01), config)
        large = CrossbarTile(np.full((2, 2), 10.0), config)
        assert small.scale == pytest.approx(0.01 / 15)
        assert large.scale == pytest.approx(10.0 / 15)

    def test_all_zero_tile_programs_nothing(self, scalar_pipeline):
        tile = CrossbarTile(np.zeros((3, 4)), MVMConfig())
        assert tile.scale == 0.0
        assert not ideal_bits(tile).any()
        codes = np.zeros(tile.physical_cols)
        assert np.array_equal(scalar_pipeline.combine(tile, codes),
                              np.zeros(3))

    def test_all_negative_column_uses_only_minus_planes(
            self, scalar_pipeline):
        """A fully negative output column programs no G+ cells."""
        block = -np.abs(np.random.default_rng(1).normal(
            1.0, 0.2, size=(1, 6)))
        config = MVMConfig(weight_bits=4, tile_rows=8, tile_cols=4)
        tile = CrossbarTile(block, config)
        bits = ideal_bits(tile)
        plus_cols = bits[:, 0::2]   # even physical columns hold G+
        minus_cols = bits[:, 1::2]
        assert not plus_cols.any()
        assert minus_cols.any()
        # Recombination of exact counts recovers the negative weights.
        counts = tile.ideal_counts(np.ones(6, dtype=bool))
        combined = scalar_pipeline.combine(tile, counts.astype(float))
        expected = (tile.quantized * tile.scale).sum(axis=1)
        gain = 1.0 / (1.0 - tile.crossbar.params.r_on
                      / tile.crossbar.params.r_off)
        assert combined == pytest.approx(expected * gain)

    def test_mixed_signs_split_between_pair_halves(self):
        block = np.array([[3.0, -3.0, 0.0]])
        config = MVMConfig(weight_bits=2, tile_rows=4, tile_cols=4)
        tile = CrossbarTile(block, config)
        # weight 3 -> binary 11 in the + planes of row 0 / 1 / 2.
        bits = ideal_bits(tile)
        assert bits[0].tolist() == [1, 0, 1, 0]   # +3: plane0+, plane1+
        assert bits[1].tolist() == [0, 1, 0, 1]   # -3: plane0-, plane1-
        assert bits[2].tolist() == [0, 0, 0, 0]

    def test_rejects_empty_or_1d_blocks(self):
        with pytest.raises(ValueError, match="2-D"):
            CrossbarTile(np.zeros(4), MVMConfig())
        with pytest.raises(ValueError, match="2-D"):
            CrossbarTile(np.zeros((0, 4)), MVMConfig())


class TestMapMatrix:
    def test_non_divisible_shapes_get_ragged_edge_tiles(self):
        weights = np.arange(70, dtype=float).reshape(7, 10)  # out x in
        config = MVMConfig(tile_rows=4, tile_cols=3)
        tiles = map_matrix(weights, config)
        # in=10 -> rows 4+4+2; out=7 -> cols 3+3+1: 9 tiles.
        assert len(tiles) == 9
        shapes = {(r0, c0): (t.rows, t.out_cols) for r0, c0, t in tiles}
        assert shapes[(8, 0)] == (2, 3)
        assert shapes[(0, 6)] == (4, 1)
        assert shapes[(8, 6)] == (2, 1)
        # Tiles partition the matrix exactly (each entry covered once).
        covered = np.zeros_like(weights)
        for r0, c0, tile in tiles:
            covered[c0:c0 + tile.out_cols, r0:r0 + tile.rows] += 1
        assert (covered == 1).all()

    def test_tile_quantization_reconstructs_matrix(self):
        rng = np.random.default_rng(7)
        weights = rng.normal(0, 2, size=(5, 11))
        config = MVMConfig(weight_bits=8, tile_rows=4, tile_cols=2)
        rebuilt = np.zeros_like(weights)
        for r0, c0, tile in map_matrix(weights, config):
            rebuilt[c0:c0 + tile.out_cols, r0:r0 + tile.rows] = \
                tile.quantized * tile.scale
        scales = [t.scale for _, _, t in map_matrix(weights, config)]
        assert np.abs(rebuilt - weights).max() <= max(scales) / 2 + 1e-12

    def test_nonideal_mapping_consumes_one_rng_deterministically(self):
        weights = np.random.default_rng(3).normal(0, 1, size=(6, 9))
        config = MVMConfig(tile_rows=4, tile_cols=4)
        nonideality = NonidealitySpec(fault_rate=0.1)
        first = map_matrix(weights, config, nonideality=nonideality,
                           rng=np.random.default_rng(5))
        second = map_matrix(weights, config, nonideality=nonideality,
                            rng=np.random.default_rng(5))
        for (_, _, a), (_, _, b) in zip(first, second):
            assert isinstance(a.crossbar, NonidealCrossbar)
            assert np.array_equal(a.crossbar.bits, b.crossbar.bits)
            assert a.crossbar.fault_campaign.total == \
                b.crossbar.fault_campaign.total

    def test_rejects_empty_matrix(self):
        with pytest.raises(ValueError, match="non-empty"):
            map_matrix(np.zeros((0, 3)), MVMConfig())
