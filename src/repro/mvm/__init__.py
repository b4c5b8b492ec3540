"""Analog in-memory matrix-vector multiplication (MVM) subsystem.

The paper's second pillar of computation-in-memory: a resistive
crossbar computes an analog dot product in one read -- word-line
voltages encode the input vector, cell conductances the weights, and
each bit-line current is the product sum.  This package turns that
primitive into an end-to-end accelerator model:

* :class:`~repro.mvm.mapper.MVMConfig` -- the quantization/tiling knob
  set (weight bits, DAC/ADC bits, tile geometry);
* :class:`~repro.mvm.mapper.CrossbarTile` /
  :func:`~repro.mvm.mapper.map_matrix` -- the tile mapper: an arbitrary
  float weight matrix split into crossbar tiles, signed weights as
  differential (G+, G-) column pairs, magnitudes bit-sliced across
  binary cell planes, one scale factor per tile;
* :mod:`~repro.mvm.pipeline` -- the mixed-signal conversion stages,
  each written once over a batch: DAC input quantization + bit-serial
  slicing, and an ADC model with a finite clipping range,
  leakage-baseline subtraction and saturation accounting;
* :class:`~repro.mvm.analog.AnalogMVM` /
  :class:`~repro.mvm.analog.AnalogAccelerator` /
  :class:`~repro.mvm.analog.AnalogAcceleratorGroup` -- the executed
  pipeline: bit-serial reads through the (possibly non-ideal) crossbar
  fabric, shift-and-add recombination, and a partial-sum accumulator
  reducing across row tiles, with energy/latency priced from the
  device's read cost.  Every matvec runs as a group of members through
  one kernel, :class:`~repro.mvm.kernel.TileStack`, a solo layer as a
  group of one and wire-IR-drop fabrics included;
* :class:`~repro.mvm.accuracy.AccuracySummary` -- application-accuracy
  metrics (task accuracy, float-reference agreement, worst output
  error, ADC saturation) with declared shard-merge policies so sharded
  runs stay bit-identical.

Like :mod:`repro.crossbar.nonideal`, this package never imports
:mod:`repro.api`: the ``analog_mvm`` engine and the accuracy-carrying
result schema live in the api layer and import from here.
"""

from repro.mvm.accuracy import AccuracySummary
from repro.mvm.analog import (
    AnalogAccelerator,
    AnalogAcceleratorGroup,
    AnalogMVM,
)
from repro.mvm.kernel import TileStack
from repro.mvm.mapper import CrossbarTile, MVMConfig, map_matrix
from repro.mvm.pipeline import ADCModel, bit_slices_batch, quantize_batch

__all__ = [
    "ADCModel",
    "AccuracySummary",
    "AnalogAccelerator",
    "AnalogAcceleratorGroup",
    "AnalogMVM",
    "CrossbarTile",
    "MVMConfig",
    "TileStack",
    "bit_slices_batch",
    "map_matrix",
    "quantize_batch",
]
