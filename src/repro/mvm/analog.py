"""The executed analog MVM pipeline: bit-serial reads + recombination.

:class:`AnalogMVM` drives one mapped matrix end to end:

1. the DAC quantizes the input vector and slices it bit-serially;
2. each slice activates the matching word lines of every tile and the
   tile's bit-line currents are ADC-converted (one multi-row read per
   tile per slice -- the crossbar's native operation, so the full
   nonideality stack applies);
3. shift-and-add recombination folds differential pairs, weight
   planes and input slices back into integers;
4. the partial-sum accumulator reduces across row tiles (per-tile
   scales applied first, fixed tile order, so accumulation is
   deterministic).

Costs are priced from the device registry's read model: every
activation pays the per-column read energy over the tile's physical
bit lines, and slices are sequential while tiles convert in parallel,
so a matvec's latency is ``dac_bits`` read cycles per layer.

Every analog matvec runs one way: :func:`_run_layer` quantizes a group
of members' batches and hands them to the kernel
(:meth:`repro.mvm.kernel.TileStack.execute_group`) in one call, then
charges each member's ledger.  :class:`AnalogAcceleratorGroup` runs a
window's accelerators through it, and :class:`AnalogMVM` runs its own
batch as a group of one, on every fabric -- wire IR drop included.

:meth:`AnalogMVM.reference_matvec_batch` evaluates the pipeline
digitally without touching the fabric: where no ideal ADC code can
clip or round away from its ON-cell count, as the exact integer matvec
of the input slices with the quantized weights; elsewhere, as the ideal
read currents synthesized from the intended programs and converted
through the same ADC model.  On ideal hardware analog and reference
agree bit-for-bit, and under nonidealities their divergence *is* the
measured accuracy loss.
"""

from __future__ import annotations

import numpy as np

from repro.crossbar.nonideal import NonidealCrossbar, NonidealitySpec
from repro.crossbar.scouting import ScoutingEnergyModel
from repro.devices.base import DeviceParameters
from repro.mvm.kernel import TileStack
from repro.mvm.mapper import MVMConfig, map_matrix
from repro.mvm.pipeline import ADCModel, quantize_batch
from repro.obs.trace import span

__all__ = ["AnalogAccelerator", "AnalogAcceleratorGroup", "AnalogMVM"]


def _sequential_fold(start: float, values: np.ndarray) -> float:
    """Left-fold ``start + v[0] + v[1] + ...`` with scalar rounding.

    The ledger's float accumulators are defined by the per-read
    loop's one-by-one accumulation order.  A plain 1-D ``values.sum()`` rounds
    differently (NumPy reduces the innermost stride pairwise), so the
    addends are laid out as the first column of a two-column matrix:
    reductions over a non-innermost axis run strictly sequentially in
    index order, reproducing the Python ``+=`` loop bit for bit.
    """
    seq = np.zeros((values.size + 1, 2), dtype=float)
    seq[0, 0] = start
    seq[1:, 0] = values
    return float(seq.sum(axis=0)[0])


class AnalogMVM:
    """One weight matrix mapped to tiles and executed bit-serially.

    Args:
        weights: float ``(out_dim, in_dim)`` matrix (``y = W @ x``).
        config: quantization/tiling knobs.
        params: device resistance window.
        nonideality: device-nonideality stack (default ideal).
        rng: entropy for stochastic nonideality axes; a single
            generator drives the whole tile grid in construction order.
        energy_model: per-column read cost (from the device registry).
        read_voltage_volts: word-line read voltage.

    Attributes:
        tiles: ``(row_offset, col_offset, tile)`` triples in grid order.
        reads: multi-row activations performed.
        adc_conversions: ADC conversions performed (columns read).
        adc_saturations: conversions clipped at the ADC ceiling.
        tile_saturations: per-tile saturation counts, in grid order.
        energy_joules: accumulated read energy.
        latency_seconds: accumulated timeline (sequential input slices;
            tiles read in parallel).
    """

    def __init__(
        self,
        weights: np.ndarray,
        config: MVMConfig,
        params: DeviceParameters | None = None,
        nonideality: NonidealitySpec | None = None,
        rng: np.random.Generator | None = None,
        energy_model: ScoutingEnergyModel | None = None,
        read_voltage_volts: float = 0.2,
    ) -> None:
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2 or weights.size == 0:
            raise ValueError(
                f"weights must be a non-empty 2-D matrix, got shape "
                f"{weights.shape}"
            )
        self.out_dim, self.in_dim = weights.shape
        self.config = config
        self.params = params or DeviceParameters()
        self.energy_model = energy_model or ScoutingEnergyModel()
        with span("mvm.map_tiles", rows=self.out_dim, cols=self.in_dim):
            self.tiles = map_matrix(
                weights, config, params=self.params,
                nonideality=nonideality, rng=rng,
                read_voltage_volts=read_voltage_volts,
            )
        self.adc = ADCModel(
            bits=config.adc_bits,
            lsb_current_amps=read_voltage_volts / self.params.r_on,
            leak_current_amps=read_voltage_volts / self.params.r_off,
        )
        self._stack = TileStack(
            self.tiles, self.out_dim, self.in_dim, config, self.adc)
        self._phys_cols = np.array(
            [tile.physical_cols for _, _, tile in self.tiles],
            dtype=np.int64)
        self._op_energy = np.array([
            self.energy_model.operation_energy(tile.physical_cols)
            for _, _, tile in self.tiles
        ], dtype=float)
        self.reads = 0
        self.adc_conversions = 0
        self.adc_saturations = 0
        self.tile_saturations = [0] * len(self.tiles)
        self.energy_joules = 0.0
        self.latency_seconds = 0.0

    @property
    def crossbars(self) -> list:
        """The tiles' fabrics, in grid order (for fidelity probes)."""
        return [tile.crossbar for _, _, tile in self.tiles]

    def program_cycles(self) -> int:
        """Programming events spent mapping the matrix (all tiles)."""
        return int(sum(int(c.program_cycles.sum())
                       for c in self.crossbars))

    def ledger_twin(self) -> "AnalogMVM":
        """A fresh cost ledger over the same mapped fabric.

        Shares the tiles, crossbars and stacked tensors -- which ideal
        execution never mutates -- while counting reads, conversions,
        energy and latency from zero.  Mapping a matrix once and
        twinning is observably identical to remapping it per item on an
        ideal fabric: construction is deterministic and consumes no
        entropy there.  Non-ideal fabrics must not be twinned: their
        construction draws per-item entropy, so each item's faults,
        spread and wires are its own.
        """
        twin = object.__new__(AnalogMVM)
        twin.__dict__.update(self.__dict__)
        twin.reads = 0
        twin.adc_conversions = 0
        twin.adc_saturations = 0
        twin.tile_saturations = [0] * len(self.tiles)
        twin.energy_joules = 0.0
        twin.latency_seconds = 0.0
        return twin

    # -- execution ---------------------------------------------------------------

    def matvec_batch(self, x_batch: np.ndarray) -> np.ndarray:
        """A batch of analog matvecs through the fabric, one kernel call.

        Sample ``m`` of the result -- outputs *and* every ledger
        increment -- is bit-identical to a per-read loop over
        ``x_batch[m]`` in batch order, on every fabric.

        Args:
            x_batch: non-negative float ``(batch, in_dim)`` matrix.

        Returns:
            Float ``(batch, out_dim)`` outputs.
        """
        return _run_layer([self], np.asarray(x_batch)[None], True)[0]

    def reference_matvec_batch(self, x_batch: np.ndarray) -> np.ndarray:
        """The digital golden twin of :meth:`matvec_batch`.

        Same DAC quantization and shift-and-add, with no cost
        accounting and no fabric state.  Each read's code is its count
        of ON cells when no ideal code can clip or round away from it
        (:attr:`repro.mvm.kernel.TileStack.exact_reference`), so the
        reads are one integer matvec with the quantized weights;
        otherwise the ideal read currents are synthesized from the
        tiles' intended programs and pass the same ADC conversion and
        debias gain.  Equals :meth:`matvec_batch` exactly on an ideal
        fabric.
        """
        return _run_layer([self], np.asarray(x_batch)[None], False)[0]

    def _account_batch(
        self, counted: np.ndarray, tile_sats: np.ndarray
    ) -> None:
        """Apply one batch's ledger increments in per-read order.

        Integer counters are order-free sums; the float accumulators
        replay the per-read accumulation sequence exactly -- one latency
        step per sample, then per-read energy in (sample, slice, tile)
        order -- so batched ledgers match per-sample ledgers to the
        last ulp.
        """
        batch = counted.shape[1]
        # The control timeline always cycles through every input
        # slice, whether or not a given slice activates any rows.
        step = self.config.dac_bits * self.energy_model.latency_seconds
        self.latency_seconds = _sequential_fold(
            self.latency_seconds, np.full(batch, step))
        self.reads += int(counted.sum())
        reads_per_tile = counted.sum(axis=(1, 2))
        self.adc_conversions += int(
            (reads_per_tile * self._phys_cols).sum())
        self.adc_saturations += int(tile_sats.sum())
        for index, sats in enumerate(tile_sats):
            self.tile_saturations[index] += int(sats)
        # Energy adds in (sample, slice, tile) order; skipped reads
        # contribute exact +0.0 addends, which never change a
        # non-negative accumulator's bits.
        energies = counted.transpose(1, 2, 0) * self._op_energy
        self.energy_joules = _sequential_fold(
            self.energy_joules, energies.ravel())


class AnalogAccelerator:
    """A stack of :class:`AnalogMVM` layers sharing one cost ledger.

    The per-item fabric the ``analog_mvm`` engine hands each workload:
    one mapped layer per weight matrix, all driven from a single
    entropy stream in layer order (so an item's physics are a pure
    function of ``(seed, item index)``), with counters and energy
    aggregated across layers.

    Args:
        layer_weights: one ``(out_dim, in_dim)`` float matrix per
            layer, applied in order by the workload.
        config: shared quantization/tiling knobs.
        params: shared device window.
        nonideality: shared nonideality stack.
        rng: entropy stream for stochastic axes.
        energy_model: per-column read cost.
        read_voltage_volts: shared read voltage.
    """

    def __init__(
        self,
        layer_weights,
        config: MVMConfig,
        params: DeviceParameters | None = None,
        nonideality: NonidealitySpec | None = None,
        rng: np.random.Generator | None = None,
        energy_model: ScoutingEnergyModel | None = None,
        read_voltage_volts: float = 0.2,
    ) -> None:
        matrices = [np.asarray(w, dtype=float) for w in layer_weights]
        if not matrices:
            raise ValueError("accelerator needs at least one layer")
        self.layers = [
            AnalogMVM(weights, config, params=params,
                      nonideality=nonideality, rng=rng,
                      energy_model=energy_model,
                      read_voltage_volts=read_voltage_volts)
            for weights in matrices
        ]

    # -- aggregated ledgers ------------------------------------------------------

    @property
    def crossbars(self) -> list:
        """Every tile fabric, layer-major then grid order."""
        return [c for layer in self.layers for c in layer.crossbars]

    @property
    def nonideal_crossbars(self) -> list[NonidealCrossbar]:
        """The non-ideal subset of :attr:`crossbars` (same order)."""
        return [c for c in self.crossbars
                if isinstance(c, NonidealCrossbar)]

    @property
    def reads(self) -> int:
        return sum(layer.reads for layer in self.layers)

    @property
    def adc_conversions(self) -> int:
        return sum(layer.adc_conversions for layer in self.layers)

    @property
    def adc_saturations(self) -> int:
        return sum(layer.adc_saturations for layer in self.layers)

    @property
    def tile_saturations(self) -> list[int]:
        """Per-tile saturation counts, layer-major then grid order."""
        return [count for layer in self.layers
                for count in layer.tile_saturations]

    @property
    def energy_joules(self) -> float:
        return sum(layer.energy_joules for layer in self.layers)

    @property
    def latency_seconds(self) -> float:
        return sum(layer.latency_seconds for layer in self.layers)

    def program_cycles(self) -> int:
        return sum(layer.program_cycles() for layer in self.layers)

    def ledger_twin(self) -> "AnalogAccelerator":
        """A fresh-ledger accelerator over the same mapped layers.

        See :meth:`AnalogMVM.ledger_twin`; valid only for ideal
        fabrics, whose mapping is deterministic and read-only.
        """
        twin = object.__new__(AnalogAccelerator)
        twin.layers = [layer.ledger_twin() for layer in self.layers]
        return twin


class AnalogAcceleratorGroup:
    """Same-geometry accelerators run as one group, layer by layer.

    The ``analog_mvm`` engine's execution form for a window, of one item
    or many: every item's accelerator shares the same tile layout (same
    matrix shapes, knobs, converters and read model -- fabrics, weights
    and tile scales may differ per item), so each layer pass over the
    whole window is one :func:`_run_layer` call.  Member ``i``'s outputs
    and ledger increments are bit-identical to running member ``i``'s
    batch alone -- members never mix in any reduction -- so grouping is
    invisible to results, costs and shard determinism.

    Args:
        accelerators: the member :class:`AnalogAccelerator` objects, in
            window order.

    Raises:
        ValueError: on no members, or members whose layer counts or
            per-layer geometry keys
            (:meth:`repro.mvm.kernel.TileStack.geometry_key`) differ.
    """

    def __init__(self, accelerators) -> None:
        accelerators = list(accelerators)
        if not accelerators:
            raise ValueError("group needs at least one accelerator")
        keys = [[layer._stack.geometry_key() for layer in acc.layers]
                for acc in accelerators]
        if any(key != keys[0] for key in keys[1:]):
            raise ValueError(
                "accelerators cannot fuse: members must share layer "
                "count and per-layer tile geometry"
            )
        self.accelerators = accelerators

    def matvec_batch(self, layer: int, x_stacked: np.ndarray) -> np.ndarray:
        """Every member's analog batch through ``layer`` in one pass.

        Args:
            x_stacked: non-negative float ``(members, batch, in_dim)``
                inputs; member ``i`` executes ``x_stacked[i]``.

        Returns:
            Float ``(members, batch, out_dim)`` outputs.
        """
        return _run_layer([acc.layers[layer] for acc in self.accelerators],
                          x_stacked, True)

    def reference_matvec_batch(
        self, layer: int, x_stacked: np.ndarray
    ) -> np.ndarray:
        """Grouped digital golden batches (no ledger, no fabric)."""
        return _run_layer([acc.layers[layer] for acc in self.accelerators],
                          x_stacked, False)


def _run_layer(
    mvms: list[AnalogMVM], x_stacked: np.ndarray, electrical: bool
) -> np.ndarray:
    """Every member's batch through its mapped layer, in one kernel call.

    The one way an analog matvec runs.  The DAC quantizes each sample
    on its own peak, the kernel reads every member's fabric (or
    computes the digital reference), and each member's ledger is
    charged in per-read order.

    Args:
        mvms: the members' layers, of one geometry, in member order.
        x_stacked: non-negative float ``(members, batch, in_dim)``
            inputs; member ``i`` executes ``x_stacked[i]``.
        electrical: read the fabrics and charge their ledgers (True),
            or compute the digital reference (False).

    Returns:
        Float ``(members, batch, out_dim)`` outputs.
    """
    proto = mvms[0]._stack
    x = np.asarray(x_stacked, dtype=float)
    if x.ndim != 3 or x.shape[0] != len(mvms) \
            or x.shape[2] != proto.in_dim:
        raise ValueError(
            f"expected a ({len(mvms)}, batch, {proto.in_dim}) "
            f"input tensor, got {x.shape}"
        )
    members, batch, n = x.shape
    with span("mvm.dac"):
        x_int, scales = quantize_batch(
            x.reshape(members * batch, n), proto.config.dac_bits)
    stacks = [mvm._stack for mvm in mvms]
    if all(stack is proto for stack in stacks[1:]):
        # Ledger twins share one mapped fabric: the kernel reads it
        # once for all of them instead of stacking identical copies.
        stacks = [proto]
    y, counted, tile_sats = proto.execute_group(
        x_int.reshape(members, batch, n), scales.reshape(members, batch),
        electrical, stacks)
    if electrical:
        with span("mvm.ledger"):
            for i, mvm in enumerate(mvms):
                mvm._account_batch(counted[i], tile_sats[i])
    return y
