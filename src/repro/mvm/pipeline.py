"""Mixed-signal conversion stages of the analog MVM pipeline.

The crossbar computes in the analog current domain; everything entering
or leaving it passes through a converter, and those converters -- not
the array -- set the accuracy floor:

* the **DAC stage** quantizes a non-negative float input vector to
  ``dac_bits`` integer levels (one scale factor per vector) and slices
  it bit-serially: slice ``s`` activates the word lines whose quantized
  input has bit ``s`` set, and the digital back end re-weights it by
  ``2**s`` during shift-and-add recombination;
* the **ADC stage** converts each bit-line current back to an integer
  code.  The LSB is calibrated to the nominal single-ON-cell current
  (``Vr / r_on``), the expected all-OFF leakage of the activated rows
  is subtracted as a baseline (the controller knows how many rows it
  drove), and codes clip to ``2**adc_bits - 1`` -- clipped conversions
  are counted as *saturations*, the signature of an ADC too narrow for
  the tile's row count.

With an ideal fabric the subtraction makes the conversion exact in the
sense that the code equals ``round(n * (1 - r_on/r_off))`` for ``n``
activated ON cells, whatever the device window.  Where that code is
``n`` itself for every read -- a wide enough window and ADC for the
tile height --
:meth:`repro.mvm.analog.AnalogMVM.reference_matvec_batch` is an exact
integer matvec that shares nothing with this converter; elsewhere (tie
windows, narrow ADCs) it synthesizes the ideal read currents digitally
and converts them through this same ADC model.  Either way tests pin
analog == reference bit-for-bit on ideal hardware -- half-tie roundings
included.

Each stage is written once, over a whole batch: an analog layer
quantizes a group's batches in one call, and the kernel
(:mod:`repro.mvm.kernel`) slices them and converts all their reads.
The per-vector forms of the scalar pipeline are kept with its test
oracle, ``tests/mvm/scalar_pipeline.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "ADCModel",
    "bit_slices_batch",
    "quantize_batch",
]


def quantize_batch(
    x: np.ndarray, bits: int
) -> tuple[np.ndarray, np.ndarray]:
    """DAC quantization: non-negative floats -> integer levels + scales.

    Args:
        x: 2-D non-negative ``(batch, n)`` input matrix.
        bits: DAC resolution; levels span ``[0, 2**bits - 1]``.

    Returns:
        ``(x_int, scales)`` of shapes ``(batch, n)`` / ``(batch,)``
        with ``x[m] ~= x_int[m] * scales[m]``.  Each row has its own
        scale (full range maps to the row's peak, 0.0 for an all-zero
        row), so a row quantizes exactly as it would alone -- same
        peak, same scale, same roundings -- and batching is a pure
        layout change, not a numerics change.

    Raises:
        ValueError: on a non-2-D matrix, negative, NaN or infinite
            entries, or a non-positive bit count.
    """
    if bits < 1:
        raise ValueError("dac bits must be a positive integer")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(
            f"input must be a 2-D (batch, n) matrix, got shape {x.shape}"
        )
    if x.size and float(x.min()) < 0:
        raise ValueError(
            "analog MVM inputs must be non-negative (signed weights are "
            "handled by the differential mapping; rectify inputs before "
            "the DAC)"
        )
    if x.size == 0:
        return (np.zeros(x.shape, dtype=np.int64),
                np.zeros(x.shape[0], dtype=float))
    peaks = x.max(axis=1)
    # Reject a NaN or +inf peak (``max`` propagates NaN, and -inf
    # already fails the non-negative check): the int64 cast would turn
    # NaN into -2**63 and +inf into a NaN scale, silently.
    if not np.isfinite(peaks.max()):
        raise ValueError(
            "analog MVM inputs must be finite (the DAC cannot quantize "
            "NaN or inf)")
    scales = np.where(peaks > 0.0, peaks / (2 ** bits - 1), 0.0)
    # Divide by 1.0 on all-zero rows (their x_int is forced to 0), so
    # live rows see the exact ``x / scale`` division.
    safe = np.where(scales > 0.0, scales, 1.0)
    x_int = np.rint(x / safe[:, None]).astype(np.int64)
    x_int[scales == 0.0] = 0
    return x_int, scales


def bit_slices_batch(x_int: np.ndarray, bits: int) -> np.ndarray:
    """Bit-serial slices of quantized input vectors.

    Returns:
        Boolean ``(batch, bits, n)`` array; ``out[m, s]`` is sample
        ``m``'s word-line activation mask for input bit ``s`` (LSB
        first), so ``sum_s 2**s * out[m, s]`` reconstructs
        ``x_int[m]``.
    """
    x_int = np.asarray(x_int, dtype=np.int64)
    shifts = np.arange(bits, dtype=np.int64)
    return ((x_int[:, None, :] >> shifts[None, :, None]) & 1) \
        .astype(bool)


@dataclasses.dataclass(frozen=True)
class ADCModel:
    """Per-column current quantizer with clipping and baseline removal.

    Attributes:
        bits: ADC resolution; codes span ``[0, 2**bits - 1]``.
        lsb_current_amps: current of one nominal ON cell (``Vr / r_on``) --
            the converter's LSB.
        leak_current_amps: nominal per-activated-row OFF leakage
            (``Vr / r_off``), subtracted ``active_rows`` times as the
            conversion baseline.
    """

    bits: int
    lsb_current_amps: float
    leak_current_amps: float = 0.0

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or isinstance(self.bits, bool) \
                or self.bits < 1:
            raise ValueError("adc bits must be a positive integer")
        if self.lsb_current_amps <= 0:
            raise ValueError("adc lsb current must be positive")
        if self.leak_current_amps < 0:
            raise ValueError("adc leak current must be non-negative")

    @property
    def max_code(self) -> int:
        """Top of the conversion range (``2**bits - 1``)."""
        return 2 ** self.bits - 1

    def convert_codes(
        self, currents: np.ndarray, active_rows
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized conversion over any batch of reads.

        Saturation semantics are **per conversion**: every element of
        ``currents`` is one ADC conversion, and it is flagged exactly
        once iff its unclipped code exceeds :attr:`max_code` --
        independent of how many DAC slices, tiles or samples share the
        read (a column clipping on k slices of one matvec is k
        conversions and k saturations).

        The kernel passes the ``(distinct reads, tiles, cols)``
        currents of each distinct (fabric, pattern) read once, with
        ``(distinct reads, 1)`` active-row counts, and gathers the
        folded codes and clip counts back to every read -- exact, since
        each element converts independently.  ``np.rint`` already
        yields exact integer-valued floats and clipping preserves them,
        so the codes feed the shift-and-add fold directly without an
        int64 round trip.

        Args:
            currents: per-conversion currents in amperes, any shape.
            active_rows: word lines driven per read (sets the leakage
                baseline) -- a scalar, or an array broadcastable
                against ``currents`` with its trailing (per-column)
                axis dropped.

        Returns:
            ``(codes, clipped)``: float64 integer-valued codes clipped
            to the range and the boolean saturation mask.
        """
        currents = np.asarray(currents, dtype=float)
        baseline = np.asarray(active_rows) * self.leak_current_amps
        if np.ndim(baseline) and np.ndim(baseline) < currents.ndim:
            baseline = np.expand_dims(baseline, -1)
        # In place: one buffer through subtract, divide and round.
        raw = np.subtract(currents, baseline)
        raw /= self.lsb_current_amps
        np.rint(raw, out=raw)
        clipped = raw > self.max_code
        np.maximum(raw, 0.0, out=raw)
        np.minimum(raw, float(self.max_code), out=raw)
        return raw, clipped
