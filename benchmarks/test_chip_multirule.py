"""Whole-chip bench: a full rule set as one machine, one pass.

Real automata processors hold the entire signature set and evaluate all
of it per input symbol.  This bench configures a 16-rule IDS set onto one
APChip, scans the payload once, checks per-rule attribution against
individually-run processors, and contrasts the single-pass cost with
rule-at-a-time scanning.
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.automata import homogenize
from repro.rram_ap import APChip, rram_ap
from repro.workloads import make_ids_workload


def build_and_scan():
    workload = make_ids_workload(np.random.default_rng(101), n_rules=16,
                                 payload_length=2048, n_attacks=5)
    machines = [homogenize(r.compile()) for r in workload.rules]
    chip = APChip(machines)
    report = chip.scan(workload.payload)
    return workload, machines, chip, report


def test_chip_scan(benchmark, save_report):
    workload, machines, chip, report = benchmark.pedantic(
        build_and_scan, rounds=1, iterations=1
    )

    # Attribution agrees with per-rule processors.
    for k, machine in enumerate(machines):
        individual = rram_ap(machine).find_matches(workload.payload)
        assert report.events_for(k) == individual, k

    # Every planted attack is attributed to its rule.
    events = {(e.rule, e.end_position) for e in report.events}
    for rule, offset in workload.planted:
        assert (rule.rule_id, offset + len(rule.example)) in events

    # One-pass time beats sequential per-rule scans by ~the rule count.
    sequential_time = sum(
        rram_ap(m).run(workload.payload, unanchored=True)[1].pipelined_time_seconds
        for m in machines
    )
    speedup = sequential_time / report.cost.pipelined_time_seconds
    assert speedup > 0.9 * len(machines)

    text = format_table(
        ["metric", "value"],
        [
            ("rules on chip", chip.n_rules),
            ("total STEs", chip.n_states),
            ("payload bytes", len(workload.payload)),
            ("match events", len(report.events)),
            ("one-pass time (us)", report.cost.pipelined_time_seconds * 1e6),
            ("sequential time (us)", sequential_time * 1e6),
            ("speedup", speedup),
            ("pass energy (nJ)", report.cost.energy_joules * 1e9),
        ],
        title="Whole-chip scan: 16 IDS rules in one pass",
    )
    save_report("chip_multirule", text)
