"""Fig. 9 bench: the 256-cell dot-product column transient experiment.

Paper claims (Section IV-D): with one hot cell out of 256, pre-charge
0.4 V and trip at 0.1 V, the RRAM column discharges in 104 ps vs 161 ps
for SRAM (35% less) and spends 2.09 fJ vs 5.16 fJ (59% less).
"""

import pytest

from repro.analysis.compare import claims_table_rows
from repro.analysis.figures import fig9_dot_product
from repro.analysis.tables import format_table
from repro.circuits import PTM32, build_rram_column, measure_discharge
from repro.devices import DeviceParameters


def test_fig9_dot_product(benchmark, save_report):
    result = benchmark.pedantic(fig9_dot_product, rounds=1, iterations=1)

    for claim in result.claims:
        claim.assert_holds()

    # The structural claims, independent of calibration details.
    assert result.rram_delay < result.sram_delay
    assert result.rram_energy < result.sram_energy
    assert 0.25 < result.delay_reduction < 0.45       # paper: 35%
    assert 0.50 < result.energy_reduction < 0.68      # paper: 59%

    text = result.render() + "\n\n" + format_table(
        ["source", "claim", "paper", "measured", "error", "verdict"],
        claims_table_rows(result.claims),
    )
    save_report(
        "fig9_dot_product",
        text,
        csv_headers=["design", "delay_s", "energy_j"],
        csv_rows=result.csv_rows(),
    )


def test_fig9_column_height_scaling(benchmark, save_report):
    """Extension: discharge delay vs column height (the paper fixes 256)."""

    def sweep_heights():
        rows = []
        for n in (64, 128, 256, 512):
            bits = [1] + [0] * (n - 1)
            column = build_rram_column(PTM32, DeviceParameters(), bits,
                                       selected=[0])
            m = measure_discharge(column, t_stop=1e-9 + 3e-9, dt=4e-12)
            rows.append((n, m.discharge_time_seconds, m.energy_joules))
        return rows

    rows = benchmark.pedantic(sweep_heights, rounds=1, iterations=1)
    delays = [r[1] for r in rows]
    energies = [r[2] for r in rows]
    # Taller columns mean more bit-line capacitance: slower and costlier.
    assert delays == sorted(delays)
    assert energies == sorted(energies)
    # Delay scales roughly linearly with height (RC with C ~ n).
    assert delays[3] / delays[1] == pytest.approx(
        energies[3] / energies[1], rel=0.2
    )

    text = format_table(
        ["cells", "discharge (ps)", "energy (fJ)"],
        [(n, d * 1e12, e * 1e15) for n, d, e in rows],
        title="Fig. 9 extension: dot-product column height scaling (RRAM)",
    )
    save_report(
        "fig9_height_scaling",
        text,
        csv_headers=["cells", "delay_s", "energy_j"],
        csv_rows=rows,
    )
