"""Fault injection campaigns for crossbar robustness studies.

The paper names endurance and reliability as the main open drawbacks of
memristive CIM.  This module provides repeatable fault campaigns -- stuck
cells and retention drift -- so the benches can quantify how gate outputs
and automata results degrade with defect density.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.crossbar.array import Crossbar

__all__ = [
    "FaultCampaign",
    "inject_stuck_faults",
    "inject_random_stuck_faults",
    "drift_campaign",
]


@dataclasses.dataclass(frozen=True)
class FaultCampaign:
    """Summary of one injection campaign.

    Attributes:
        stuck_at_zero: number of cells frozen at logic 0.
        stuck_at_one: number of cells frozen at logic 1.
        locations: (row, col, stuck_bit) tuples actually injected.
    """

    stuck_at_zero: int
    stuck_at_one: int
    locations: tuple[tuple[int, int, int], ...]

    @property
    def total(self) -> int:
        return self.stuck_at_zero + self.stuck_at_one


def inject_random_stuck_faults(
    crossbar: Crossbar,
    fault_rate: float,
    rng: np.random.Generator,
    stuck_at_one_fraction: float = 0.5,
) -> FaultCampaign:
    """Freeze a random subset of cells.

    Args:
        crossbar: the array to damage (mutated in place).
        fault_rate: fraction of cells to freeze, in [0, 1].
        rng: random generator (explicit for reproducibility).
        stuck_at_one_fraction: share of faults frozen at logic 1 (SET-stuck,
            the common RRAM endurance failure) versus logic 0.

    Returns:
        The injected :class:`FaultCampaign`.
    """
    if not 0.0 <= fault_rate <= 1.0:
        raise ValueError("fault_rate must be in [0, 1]")
    rows, cols = crossbar.shape
    n_faults = int(round(fault_rate * rows * cols))
    return inject_stuck_faults(crossbar, n_faults, rng,
                               stuck_at_one_fraction)


def inject_stuck_faults(
    crossbar: Crossbar,
    n_faults: int,
    rng: np.random.Generator,
    stuck_at_one_fraction: float = 0.5,
) -> FaultCampaign:
    """Freeze exactly ``n_faults`` random cells.

    The count-based core :func:`inject_random_stuck_faults` delegates
    to; spec-driven campaigns (``NonidealitySpec.fault_count``) call it
    directly so a campaign's size is independent of the array geometry.

    Args:
        crossbar: the array to damage (mutated in place).
        n_faults: exact number of cells to freeze.
        rng: random generator (explicit for reproducibility).
        stuck_at_one_fraction: share of faults frozen at logic 1.

    Returns:
        The injected :class:`FaultCampaign`.
    """
    if not 0.0 <= stuck_at_one_fraction <= 1.0:
        raise ValueError("stuck_at_one_fraction must be in [0, 1]")
    rows, cols = crossbar.shape
    n_cells = rows * cols
    if not 0 <= n_faults <= n_cells:
        raise ValueError(
            f"n_faults must be in [0, {n_cells}], got {n_faults}"
        )
    flat = rng.choice(n_cells, size=n_faults, replace=False)
    if n_faults == 0:
        return FaultCampaign(0, 0, ())
    # One batched uniform draw consumes the generator stream exactly as
    # the historical per-fault ``rng.random()`` loop did, so campaigns
    # stay bit-identical while the injection applies in one pass.
    rows_idx, cols_idx = np.divmod(flat.astype(np.int64), cols)
    stuck_bits = (rng.random(size=n_faults)
                  < stuck_at_one_fraction).astype(np.int64)
    crossbar.inject_stuck_cells(rows_idx, cols_idx, stuck_bits)
    n_one = int(stuck_bits.sum())
    return FaultCampaign(
        stuck_at_zero=n_faults - n_one,
        stuck_at_one=n_one,
        locations=tuple(zip(rows_idx.tolist(), cols_idx.tolist(),
                            stuck_bits.tolist())),
    )


def drift_campaign(
    crossbar: Crossbar,
    sigma: float,
    rng: np.random.Generator,
) -> None:
    """Apply lognormal retention drift to every cell resistance.

    Args:
        crossbar: the array to age (mutated in place).
        sigma: lognormal sigma of the drift factor; 0 is a no-op.
        rng: random generator.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return
    factors = rng.lognormal(0.0, sigma, size=crossbar.shape)
    crossbar.apply_resistance_drift(factors)
