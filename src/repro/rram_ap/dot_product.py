"""The vector dot-product operator (paper Fig. 7).

The one hardware kernel every automata processor is built from: a column
of configurable bits computes ``out = OR_i (in[i] AND config[i])`` --
logically a Boolean dot product -- by pre-charging the bit line and letting
any (selected, logic-1) cell discharge it.

Two interchangeable implementations:

* :class:`NumpyDotProduct` -- the golden functional model;
* :class:`CrossbarDotProduct` -- evaluates through the electrical
  :class:`~repro.crossbar.Crossbar` read path (cell resistances, summed
  currents, SA threshold), validating that the circuit actually computes
  the function under device non-idealities.
"""

from __future__ import annotations

import math

import numpy as np

from repro.crossbar.array import Crossbar
from repro.devices.base import DeviceParameters
from repro.devices.variability import VariabilityModel

__all__ = ["NumpyDotProduct", "CrossbarDotProduct"]


class NumpyDotProduct:
    """Golden Boolean dot-product array.

    Args:
        config: boolean (rows, cols) configuration matrix; column ``n``
            holds the config vector of output ``n``.
    """

    def __init__(self, config: np.ndarray) -> None:
        config = np.asarray(config, dtype=bool)
        if config.ndim != 2:
            raise ValueError("config must be a 2-D matrix")
        self.config = config

    @property
    def shape(self) -> tuple[int, int]:
        return self.config.shape

    def evaluate(self, inputs: np.ndarray) -> np.ndarray:
        """``out[n] = OR_i inputs[i] & config[i, n]``."""
        inputs = np.asarray(inputs, dtype=bool)
        if inputs.shape != (self.config.shape[0],):
            raise ValueError(
                f"expected {self.config.shape[0]} inputs, got {inputs.shape}"
            )
        return self.config[inputs].any(axis=0)


class CrossbarDotProduct:
    """Dot-product operator evaluated through crossbar electrical reads.

    The configuration matrix is programmed into a 1T1R array; evaluation
    activates the word lines where the input vector is 1 and thresholds
    each bit-line current.  The threshold is placed at the geometric mean
    between the worst-case leakage level (every selected cell OFF) and the
    single-hot level (exactly one selected cell ON), the same placement the
    Fig. 9 sense amplifier uses in the voltage domain.

    Args:
        config: boolean (rows, cols) configuration matrix.
        params: device resistance window.
        read_voltage_volts: word-line read voltage.
        variability: optional resistance spread (tests margin robustness).
        rng: random generator when variability is given.
    """

    def __init__(
        self,
        config: np.ndarray,
        params: DeviceParameters | None = None,
        read_voltage_volts: float = 0.2,
        variability: VariabilityModel | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        config = np.asarray(config, dtype=bool)
        if config.ndim != 2:
            raise ValueError("config must be a 2-D matrix")
        params = params or DeviceParameters()
        rows, cols = config.shape
        self.crossbar = Crossbar(
            rows, cols, params=params,
            read_voltage_volts=read_voltage_volts,
            variability=variability, rng=rng,
        )
        self.crossbar.load_matrix(config.astype(np.int8))
        # Worst-case levels: all rows selected & OFF vs one selected ON.
        i_leak_max = rows * read_voltage_volts / params.r_off
        i_one_hot = read_voltage_volts / params.r_on
        if i_leak_max >= i_one_hot:
            raise ValueError(
                f"resistance window too small for {rows} rows: aggregate "
                f"OFF leakage exceeds a single ON current"
            )
        self.i_threshold = math.sqrt(i_leak_max * i_one_hot)

    @property
    def shape(self) -> tuple[int, int]:
        return self.crossbar.shape

    def evaluate(self, inputs: np.ndarray) -> np.ndarray:
        """Activate input word lines, threshold the bit-line currents."""
        inputs = np.asarray(inputs, dtype=bool)
        if inputs.shape != (self.crossbar.rows,):
            raise ValueError(
                f"expected {self.crossbar.rows} inputs, got {inputs.shape}"
            )
        active = np.nonzero(inputs)[0]
        if active.size == 0:
            return np.zeros(self.crossbar.cols, dtype=bool)
        currents = self.crossbar.column_currents(list(active))
        return currents > self.i_threshold
