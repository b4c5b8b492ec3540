"""Tiled crossbar mapping of float weight matrices.

A real weight matrix never fits one array: it is cut into tiles, each
programmed into its own crossbar, and the digital back end accumulates
partial sums across the row tiles.  This module owns that mapping:

* **differential pairs** -- signed weights split into non-negative
  (G+, G-) halves, one physical column pair per weight bit plane, so a
  logical output column occupies ``2 * weight_bits`` bit lines and the
  sensed result is the (shift-added) difference of the pair's codes;
* **per-tile scale factors** -- each tile quantizes against its own
  maximum magnitude, so a tile of small weights keeps full integer
  resolution instead of inheriting the global outlier's scale;
* **binary cells** -- every plane is a plain 0/1 crossbar program,
  which is what lets the whole PR-4 nonideality stack (stuck-at
  faults, lognormal variability, IR drop, write-verify) flow into the
  MVM fabric unchanged through
  :func:`repro.crossbar.nonideal.build_crossbar`.

The physical column order inside a tile is output-major:
``col(j, p, sign) = (j * weight_bits + p) * 2 + sign`` with sign 0 for
G+ and 1 for G-, and ``CrossbarTile._pair_vector`` carries the
matching ``(+/-) 2**p`` recombination weights of one output column.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Mapping

import numpy as np

from repro.crossbar.nonideal import NonidealitySpec, build_crossbar
from repro.devices.base import DeviceParameters

__all__ = ["MVMConfig", "CrossbarTile", "map_matrix"]

#: ``spec.params`` keys the analog MVM engine reads (shared with the
#: api layer so the engine's declared knob set and the parser agree).
CONFIG_PARAM_KEYS = ("weight_bits", "dac_bits", "adc_bits",
                     "tile_rows", "tile_cols")

#: Sanity ceilings: beyond these the integer pipeline stops modelling
#: plausible mixed-signal hardware and the bit-plane fan-out explodes.
_MAX_WEIGHT_BITS = 12
_MAX_DAC_BITS = 12
_MAX_ADC_BITS = 16


@dataclasses.dataclass(frozen=True)
class MVMConfig:
    """Quantization and tiling knobs of the analog MVM pipeline.

    Attributes:
        weight_bits: magnitude bits per differential half; a signed
            weight quantizes to ``[-(2**b - 1), 2**b - 1]``.
        dac_bits: input DAC resolution (bit-serial slices per matvec).
        adc_bits: per-column ADC resolution; the clipping range is
            ``2**adc_bits - 1`` LSBs, so tiles taller than that can
            saturate.
        tile_rows: logical input rows per tile (crossbar word lines).
        tile_cols: logical output columns per tile; each occupies
            ``2 * weight_bits`` physical bit lines.
    """

    weight_bits: int = 4
    dac_bits: int = 4
    adc_bits: int = 6
    tile_rows: int = 32
    tile_cols: int = 16

    def __post_init__(self) -> None:
        ceilings = {"weight_bits": _MAX_WEIGHT_BITS,
                    "dac_bits": _MAX_DAC_BITS,
                    "adc_bits": _MAX_ADC_BITS}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 1:
                raise ValueError(
                    f"mvm {field.name} must be a positive integer, "
                    f"got {value!r}"
                )
            ceiling = ceilings.get(field.name)
            if ceiling is not None and value > ceiling:
                raise ValueError(
                    f"mvm {field.name} must be <= {ceiling}, got {value}"
                )

    @property
    def max_weight_level(self) -> int:
        """Largest quantized weight magnitude (``2**weight_bits - 1``)."""
        return 2 ** self.weight_bits - 1

    @property
    def planes_per_col(self) -> int:
        """Physical bit lines per logical output column."""
        return 2 * self.weight_bits

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "MVMConfig":
        """Build a config from a spec's ``params`` mapping.

        Only the :data:`CONFIG_PARAM_KEYS` are read; other keys (the
        workload's own knobs) pass through untouched.
        """
        kwargs = {key: params[key] for key in CONFIG_PARAM_KEYS
                  if key in params}
        return cls(**kwargs)


class CrossbarTile:
    """One weight-matrix tile programmed into its own crossbar.

    Args:
        block: float weight block of shape ``(out_cols, in_rows)`` --
            the tile's slice of the full ``(out_dim, in_dim)`` matrix.
        config: quantization/tiling knobs.
        params: device resistance window (sets the stored levels).
        nonideality: the device-nonideality stack; default is ideal.
        rng: entropy for stochastic nonideality axes.
        read_voltage_volts: word-line read voltage.

    Attributes:
        rows: logical input rows (crossbar word lines).
        out_cols: logical output columns served by this tile.
        scale: per-tile dequantization factor (``weight = scale *
            quantized``); 0.0 for an all-zero tile.
        crossbar: the programmed (possibly non-ideal) fabric,
            ``rows x (out_cols * 2 * weight_bits)``.
        _pair_vector: signed shift-and-add weights of one output
            column's physical columns, ``(2 * weight_bits,)``; the
            kernel folds every output column with it.
    """

    def __init__(
        self,
        block: np.ndarray,
        config: MVMConfig,
        params: DeviceParameters | None = None,
        nonideality: NonidealitySpec | None = None,
        rng: np.random.Generator | None = None,
        read_voltage_volts: float = 0.2,
    ) -> None:
        block = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.size == 0:
            raise ValueError(
                f"tile block must be a non-empty 2-D matrix, got shape "
                f"{block.shape}"
            )
        self.out_cols, self.rows = block.shape
        self.config = config
        peak = float(np.abs(block).max())
        self.scale = peak / config.max_weight_level if peak else 0.0
        if self.scale:
            quantized = np.rint(block / self.scale).astype(np.int64)
        else:
            quantized = np.zeros(block.shape, dtype=np.int64)
        self.quantized = quantized
        self._bit_matrix = self._plane_bits(quantized, config)
        self._pair_vector = self._pair_weights(config.weight_bits)
        params_resolved = params or DeviceParameters()
        self._ideal_conductance = 1.0 / np.where(
            self._bit_matrix.astype(bool),
            params_resolved.r_on, params_resolved.r_off,
        ).astype(float)
        self.crossbar = build_crossbar(
            self.rows, self.out_cols * config.planes_per_col,
            params=params, nonideality=nonideality, rng=rng,
            read_voltage_volts=read_voltage_volts,
        )
        self.crossbar.load_matrix(self._bit_matrix)

    @staticmethod
    def _pair_weights(weight_bits: int) -> np.ndarray:
        """``(+2**p, -2**p)`` recombination weights of one logical col."""
        weights = np.repeat(2.0 ** np.arange(weight_bits), 2)
        weights[1::2] *= -1.0
        return weights

    @staticmethod
    def _plane_bits(
        quantized: np.ndarray, config: MVMConfig
    ) -> np.ndarray:
        """The (rows, physical cols) 0/1 program of the tile."""
        positive = np.clip(quantized, 0, None)
        negative = np.clip(-quantized, 0, None)
        shifts = np.arange(config.weight_bits, dtype=np.int64)
        # (out, rows, planes, 2): plane-major bit decomposition of the
        # differential halves, then flattened output-major.
        planes = np.stack(
            [(positive[:, :, None] >> shifts) & 1,
             (negative[:, :, None] >> shifts) & 1],
            axis=-1,
        )
        out_cols, rows = quantized.shape
        return planes.transpose(1, 0, 2, 3).reshape(
            rows, out_cols * config.planes_per_col
        ).astype(np.int8)

    @property
    def physical_cols(self) -> int:
        """Bit lines this tile occupies."""
        return self.out_cols * self.config.planes_per_col

    def ideal_counts(self, mask: np.ndarray) -> np.ndarray:
        """Digital popcounts the activation ``mask`` should produce."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.rows,):
            raise ValueError(
                f"expected a ({self.rows},) activation mask, got "
                f"{mask.shape}"
            )
        return mask.astype(np.int64) @ self._bit_matrix.astype(np.int64)


def map_matrix(
    weights: np.ndarray,
    config: MVMConfig,
    params: DeviceParameters | None = None,
    nonideality: NonidealitySpec | None = None,
    rng: np.random.Generator | None = None,
    read_voltage_volts: float = 0.2,
) -> list[tuple[int, int, CrossbarTile]]:
    """Split a float ``(out_dim, in_dim)`` matrix into crossbar tiles.

    Tiles cover the matrix in row-major grid order (input-row blocks
    outermost), ragged edges included: a matrix whose dimensions do not
    divide the tile shape simply gets smaller boundary tiles.  Tile
    construction order is deterministic, so a single ``rng`` drives the
    whole grid's stochastic nonidealities reproducibly.

    Returns:
        ``(row_offset, col_offset, tile)`` triples, where the offsets
        locate the tile in the logical (input, output) index space.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.size == 0:
        raise ValueError(
            f"weights must be a non-empty 2-D matrix, got shape "
            f"{weights.shape}"
        )
    out_dim, in_dim = weights.shape
    tiles = []
    for row0 in range(0, in_dim, config.tile_rows):
        rows = min(config.tile_rows, in_dim - row0)
        for col0 in range(0, out_dim, config.tile_cols):
            cols = min(config.tile_cols, out_dim - col0)
            block = weights[col0:col0 + cols, row0:row0 + rows]
            tiles.append((row0, col0, CrossbarTile(
                block, config, params=params, nonideality=nonideality,
                rng=rng, read_voltage_volts=read_voltage_volts,
            )))
    return tiles
