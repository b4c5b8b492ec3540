"""Chip-level AP comparison bench: RRAM-AP vs SRAM-AP vs SDRAM-AP.

Paper claim (Section IV-D): "Considering that the remainder part of
RRAM-AP is implemented in a similar way as SRAM-AP, RRAM-AP outperforms
SRAM-AP at the chip level regarding latency, energy, and area."  SRAM-AP
in turn outperforms SDRAM-AP on throughput/energy (Section IV, intro).
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.automata import homogenize
from repro.rram_ap import all_implementations
from repro.workloads import make_ids_workload


def run_comparison():
    workload = make_ids_workload(np.random.default_rng(61), n_rules=12,
                                 payload_length=1024, n_attacks=4)
    rows = []
    matches = {}
    for name in ("RRAM-AP", "SRAM-AP", "SDRAM-AP"):
        energy = 0.0
        latency = 0.0
        area = 0.0
        hits = []
        for rule in workload.rules:
            proc = all_implementations(homogenize(rule.compile()))[name]
            trace, cost = proc.run(workload.payload, unanchored=True)
            energy += cost.energy_joules
            latency = max(latency, cost.pipelined_time_seconds)
            area += proc.chip_cost().area_mm2()
            hits.extend((rule.rule_id, int(p)) for p in trace.match_ends)
        matches[name] = sorted(hits)
        rows.append((name, latency * 1e9, energy * 1e12, area * 1e3))
    return workload, rows, matches


def test_chip_level_comparison(benchmark, save_report):
    workload, rows, matches = benchmark.pedantic(run_comparison, rounds=1,
                                                 iterations=1)

    # All implementations report identical matches (same generic model).
    assert matches["RRAM-AP"] == matches["SRAM-AP"] == matches["SDRAM-AP"]
    # Every planted attack is among them.
    found_ends = {p for _, p in matches["RRAM-AP"]}
    for rule, offset in workload.planted:
        assert offset + len(rule.example) in found_ends

    by_name = {r[0]: r for r in rows}
    # RRAM-AP wins every column against SRAM-AP ...
    assert by_name["RRAM-AP"][1] < by_name["SRAM-AP"][1]
    assert by_name["RRAM-AP"][2] < by_name["SRAM-AP"][2]
    assert by_name["RRAM-AP"][3] < by_name["SRAM-AP"][3]
    # ... and SRAM-AP beats SDRAM-AP on speed and energy (paper, Sec. IV).
    assert by_name["SRAM-AP"][1] < by_name["SDRAM-AP"][1]
    assert by_name["SRAM-AP"][2] < by_name["SDRAM-AP"][2]

    text = format_table(
        ["implementation", "stream time (ns)", "energy (pJ)",
         "array area (10^-3 mm^2)"],
        rows,
        title="Chip-level AP comparison on a 12-rule IDS workload "
              "(1 KB payload)",
    )
    save_report(
        "ap_chip_comparison",
        text,
        csv_headers=["implementation", "latency_ns", "energy_pj",
                     "area_milli_mm2"],
        csv_rows=rows,
    )


def test_ap_symbol_throughput(benchmark):
    """Time the functional AP on a long stream (symbols/second of the
    simulator itself, not the modelled hardware)."""
    workload = make_ids_workload(np.random.default_rng(67), n_rules=1,
                                 payload_length=4096, n_attacks=1)
    rule = workload.rules[0]
    proc = all_implementations(homogenize(rule.compile()))["RRAM-AP"]

    trace, _ = benchmark(proc.run, workload.payload, unanchored=True)
    assert trace.active.shape[0] == 4097
