"""The scalar analog pipeline: the oracle for the package's one kernel.

This is the per-read loop the package ran before every analog matvec
went through :meth:`repro.mvm.kernel.TileStack.execute_group`, kept
verbatim in behaviour: per-vector DAC quantization and bit slicing, one
crossbar read and one ADC conversion per (slice, tile), shift-and-add
per tile, and partial sums accumulated slice-major in grid order, with
one ledger increment per performed read.  The converters below are the
package's former per-vector forms; they share only
:meth:`repro.mvm.pipeline.ADCModel.convert_codes` with the kernel.

The kernel equivalence suite pins the kernel against :func:`legacy_run`
bit for bit, outputs and every ledger field, with ideal reads
(:func:`ideal_read`) and with reads of the programmed crossbars
(:func:`fabric_read`: faults, variability spread and wire IR drop).
"""

from __future__ import annotations

import numpy as np


def _check_finite(peak) -> None:
    """Reject a NaN or +inf row peak (``max`` propagates NaN, and -inf
    already fails the non-negative check).  Without it the int64 cast
    turns NaN into -2**63 and +inf into a NaN scale, silently."""
    if not np.isfinite(peak):
        raise ValueError(
            "analog MVM inputs must be finite (the DAC cannot quantize "
            "NaN or inf)")


def quantize_input(
    x: np.ndarray, bits: int
) -> tuple[np.ndarray, float]:
    """DAC quantization: non-negative floats -> integer levels + scale.

    Args:
        x: 1-D non-negative input vector.
        bits: DAC resolution; levels span ``[0, 2**bits - 1]``.

    Returns:
        ``(x_int, scale)`` with ``x ~= x_int * scale``; the scale is
        per-vector (full range maps to the vector's peak) and 0.0 for
        an all-zero vector.

    Raises:
        ValueError: on a non-1-D vector, negative, NaN or infinite
            entries, or a non-positive bit count.
    """
    if bits < 1:
        raise ValueError("dac bits must be a positive integer")
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"input must be a 1-D vector, got shape {x.shape}")
    if x.size and float(x.min()) < 0:
        raise ValueError(
            "analog MVM inputs must be non-negative (signed weights are "
            "handled by the differential mapping; rectify inputs before "
            "the DAC)"
        )
    peak = float(x.max()) if x.size else 0.0
    _check_finite(peak)
    if peak == 0.0:
        return np.zeros(x.shape, dtype=np.int64), 0.0
    scale = peak / (2 ** bits - 1)
    return np.rint(x / scale).astype(np.int64), scale


def bit_slices(x_int: np.ndarray, bits: int) -> np.ndarray:
    """Bit-serial slices of a quantized input vector.

    Returns:
        Boolean ``(bits, n)`` array; row ``s`` is the word-line
        activation mask of input bit ``s`` (LSB first), so
        ``sum_s 2**s * slices[s]`` reconstructs ``x_int``.
    """
    x_int = np.asarray(x_int, dtype=np.int64)
    shifts = np.arange(bits, dtype=np.int64)
    return ((x_int[None, :] >> shifts[:, None]) & 1).astype(bool)


def convert(adc, currents: np.ndarray, active_rows: int
            ) -> tuple[np.ndarray, int]:
    """Quantize bit-line currents from one multi-row activation.

    Args:
        adc: the layer's :class:`~repro.mvm.pipeline.ADCModel`.
        currents: per-column currents in amperes.
        active_rows: word lines driven in this read (sets the
            leakage baseline).

    Returns:
        ``(codes, saturated)``: integer codes clipped to the range,
        and how many columns exceeded it (clipped high).
    """
    codes, clipped = convert_batch(adc, currents, active_rows)
    return codes, int(clipped.sum())


def convert_batch(adc, currents: np.ndarray, active_rows
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized conversion over any batch of reads.

    Args:
        adc: the layer's :class:`~repro.mvm.pipeline.ADCModel`.
        currents: per-conversion currents, any shape.
        active_rows: word lines driven per read -- a scalar, or an
            array broadcastable against ``currents`` with its
            trailing (per-column) axis dropped.

    Returns:
        ``(codes, clipped)``: int64 codes clipped to the range and
        a same-shaped boolean mask of saturated conversions.
    """
    codes, clipped = adc.convert_codes(currents, active_rows)
    return codes.astype(np.int64), clipped


def combine(tile, codes: np.ndarray) -> np.ndarray:
    """Shift-and-add one slice's ADC codes into per-column partials.

    Folds the differential pairs and weight planes under the tile's
    ``_pair_vector``, then applies the tile scale and the window
    debias gain (the ADC's exact ideal code is ``n * (1 -
    r_on/r_off)``; dividing by that factor recovers the count estimate
    whatever the device window).

    Returns:
        Float partial sums, one per logical output column.
    """
    codes = np.asarray(codes, dtype=float)
    if codes.shape != (tile.physical_cols,):
        raise ValueError(
            f"expected ({tile.physical_cols},) codes, got "
            f"{codes.shape}"
        )
    folded = codes.reshape(
        tile.out_cols, tile.config.planes_per_col
    ) @ tile._pair_vector
    params = tile.crossbar.params
    gain = 1.0 / (1.0 - params.r_on / params.r_off)
    return folded * (tile.scale * gain)


def ideal_read(tile, active_rows):
    """A read's currents synthesized from the tile's intended program.

    The operands and reduction order of ``Crossbar.column_currents`` on
    the tile's ideal two-point conductances (white-box: the tile keeps
    them for the kernel's reference path), so this is bit-for-bit the
    ideal electrical read without touching (possibly nonideal) fabric
    state.
    """
    conductance = tile._ideal_conductance[
        np.asarray(active_rows, dtype=int), :]
    return tile.crossbar.read_voltage * conductance.sum(axis=0)


def fabric_read(tile, active_rows):
    """A read of the tile's programmed crossbar: faults, spread and,
    on a wire-drop fabric, its nodal solve."""
    return tile.crossbar.column_currents(list(active_rows))


def legacy_run(mvm, x: np.ndarray, read=ideal_read):
    """One sample through the scalar loop: outputs + ledger.

    Bit-serial slices outermost, tiles in grid order, one ``read``
    (ideal currents by default, or :func:`fabric_read`), one ADC
    conversion block and one energy addend per active read, float
    accumulations in the exact serial order.

    Args:
        mvm: the :class:`~repro.mvm.analog.AnalogMVM` layer to read.
        x: one non-negative input vector.
        read: ``read(tile, active_rows)`` -> the read's currents.

    Returns:
        ``(y, ledger)``: the outputs and the sample's ledger
        increments, energy as its raw per-read addends in read order.
    """
    x_int, x_scale = quantize_input(x, mvm.config.dac_bits)
    y = np.zeros(mvm.out_dim, dtype=float)
    ledger = {
        "reads": 0,
        "adc_conversions": 0,
        "adc_saturations": 0,
        "tile_saturations": [0] * len(mvm.tiles),
        # Raw per-read addends, in read order: the ledger folds energy
        # one read at a time across the whole batch, so the oracle
        # must not pre-fold a sample's reads into a subtotal.
        "energy_addends": [],
        "latency_seconds": mvm.config.dac_bits
        * mvm.energy_model.latency_seconds,
    }
    if x_scale == 0.0:
        return y, ledger
    slices = bit_slices(x_int, mvm.config.dac_bits)
    for s, mask in enumerate(slices):
        weight = 2.0 ** s
        for index, (row0, col0, tile) in enumerate(mvm.tiles):
            sub = mask[row0:row0 + tile.rows]
            active_rows = np.nonzero(sub)[0]
            if active_rows.size == 0:
                continue
            currents = read(tile, active_rows)
            codes, saturated = convert(
                mvm.adc, currents, int(active_rows.size))
            ledger["reads"] += 1
            ledger["adc_conversions"] += tile.physical_cols
            ledger["adc_saturations"] += saturated
            ledger["tile_saturations"][index] += saturated
            ledger["energy_addends"].append(
                mvm.energy_model.operation_energy(tile.physical_cols))
            y[col0:col0 + tile.out_cols] += weight * combine(tile, codes)
    return y * x_scale, ledger
