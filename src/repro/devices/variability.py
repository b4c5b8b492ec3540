"""Device-to-device (D2D) and cycle-to-cycle (C2C) variability.

RRAM resistance levels are famously lognormal.  The crossbar layer uses this
module to draw per-cell resistance values so that read-margin studies (e.g.
the scouting-logic reference windows of Fig. 3) can be run under realistic
spread rather than two ideal points.

All sampling takes an explicit ``numpy.random.Generator`` -- never a global
seed -- so experiments are reproducible by construction.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.devices.base import DeviceParameters

__all__ = ["VariabilityModel", "sample_resistance_rows", "sample_resistances"]


@dataclasses.dataclass(frozen=True)
class VariabilityModel:
    """Lognormal spread parameters for the two resistance levels.

    Attributes:
        sigma_on_d2d: lognormal sigma of R_on across devices.
        sigma_off_d2d: lognormal sigma of R_off across devices.  OFF-state
            spread is typically several times larger than ON-state spread.
        sigma_on_c2c: additional per-programming-event sigma for R_on.
        sigma_off_c2c: additional per-programming-event sigma for R_off.
    """

    sigma_on_d2d: float = 0.05
    sigma_off_d2d: float = 0.25
    sigma_on_c2c: float = 0.02
    sigma_off_c2c: float = 0.10

    def __post_init__(self) -> None:
        for name in (
            "sigma_on_d2d",
            "sigma_off_d2d",
            "sigma_on_c2c",
            "sigma_off_c2c",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


def sample_resistances(
    bits: np.ndarray,
    params: DeviceParameters,
    variability: VariabilityModel | None,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """Turn a bit matrix into a resistance matrix, with optional spread.

    One programming event over the whole of ``bits``: every cell draws an
    ON and an OFF device-to-device median, keeps the one of its level,
    and draws that level's cycle-to-cycle noise.

    Args:
        bits: boolean/0-1 array; 1 maps to R_on (low), 0 to R_off (high).
        params: nominal resistance window.
        variability: spread model, or None for ideal two-point resistances.
        rng: random generator; required when ``variability`` is given.

    Returns:
        Float array of resistances with the same shape as ``bits``.
    """
    bits = np.asarray(bits, dtype=bool)
    return sample_resistance_rows(
        bits.reshape(1, -1), params, variability, rng).reshape(bits.shape)


def sample_resistance_rows(
    bits: np.ndarray,
    params: DeviceParameters,
    variability: VariabilityModel | None,
    rng: np.random.Generator | None,
) -> np.ndarray:
    """:func:`sample_resistances` of each row of ``bits`` in turn, in one draw.

    Equal, bit for bit, to stacking one :func:`sample_resistances` call
    per row, and ``rng`` ends in the same state: one lognormal draw over
    a (rows, 3, cols) sigma tensor consumes the generator in the per-row
    order -- the device-to-device ON medians, the OFF medians, then the
    cycle-to-cycle noise of the level each cell is written to.

    Args:
        bits: (rows, cols) boolean/0-1 matrix; 1 maps to R_on.
        params: nominal resistance window.
        variability: spread model, or None for ideal two-point resistances.
        rng: random generator; required when ``variability`` is given.
    """
    bits = np.asarray(bits, dtype=bool)
    if variability is None:
        return np.where(bits, params.r_on, params.r_off).astype(float)
    if rng is None:
        raise ValueError("a numpy Generator is required with variability")
    sigma = np.empty((bits.shape[0], 3, bits.shape[1]))
    sigma[:, 0] = variability.sigma_on_d2d
    sigma[:, 1] = variability.sigma_off_d2d
    sigma[:, 2] = np.where(bits, variability.sigma_on_c2c,
                           variability.sigma_off_c2c)
    draw = rng.lognormal(0.0, sigma)
    median = np.where(bits, params.r_on * draw[:, 0],
                      params.r_off * draw[:, 1])
    return median * draw[:, 2]
