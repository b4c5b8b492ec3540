"""Network intrusion detection: regex rule screening on automata processors.

Deep packet inspection (paper ref [22]) runs large signature sets against
every payload byte.  This example generates a synthetic Snort-like rule
set, plants attacks in a payload, screens it with RRAM-AP, verifies all
planted attacks are flagged, and compares against the CPU bit-parallel
baseline (Shift-And, refs [18, 19]) and the SRAM/SDRAM hardware baselines.

Run:  python examples/network_intrusion_detection.py
"""

import numpy as np

from repro.analysis.tables import format_table
from repro.automata import homogenize
from repro.rram_ap import all_implementations
from repro.workloads import MultiPatternMatcher, make_ids_workload


def main() -> None:
    rng = np.random.default_rng(99)
    workload = make_ids_workload(rng, n_rules=24, payload_length=4096,
                                 n_attacks=6)
    print(f"rule set: {len(workload.rules)} signatures; payload: "
          f"{len(workload.payload)} bytes; {len(workload.planted)} "
          f"planted attacks\n")

    # Screen with each hardware implementation; aggregate per-chip cost.
    rows = []
    alerts_by_name = {}
    for name in ("RRAM-AP", "SRAM-AP", "SDRAM-AP"):
        energy = 0.0
        area = 0.0
        alerts = set()
        for rule in workload.rules:
            proc = all_implementations(homogenize(rule.compile()))[name]
            trace, cost = proc.run(workload.payload, unanchored=True)
            energy += cost.energy_joules
            area += proc.chip_cost().area_mm2()
            alerts.update((rule.rule_id, p) for p in trace.match_ends)
        # Streams run in parallel across rules: time = one pass.
        stream_time = (len(workload.payload)
                       * all_implementations(
                           homogenize(workload.rules[0].compile())
                       )[name].kernel.delay_seconds)
        alerts_by_name[name] = alerts
        rows.append((name, len(alerts), stream_time * 1e9, energy * 1e12,
                     area * 1e3))

    assert alerts_by_name["RRAM-AP"] == alerts_by_name["SRAM-AP"]

    # Every planted attack must be alerted by its own rule.
    fired_rules = {rule_id for rule_id, _ in alerts_by_name["RRAM-AP"]}
    for rule, offset in workload.planted:
        assert rule.rule_id in fired_rules, rule
    print(f"all {len(workload.planted)} planted attacks detected\n")

    print(format_table(
        ["engine", "alerts", "payload pass (ns)", "energy (pJ)",
         "area (10^-3 mm^2)"],
        rows,
        title="Hardware screening of 24 rules over a 4 KB payload",
    ))

    # CPU baseline: literal prefixes via Shift-And (regex rules fall back
    # to the AP; this contrasts per-symbol work only).
    literal_rules = [r.pattern for r in workload.rules
                     if r.pattern.isalnum()]
    matcher = MultiPatternMatcher(literal_rules)
    cpu_hits = matcher.total_matches(workload.payload)
    print(f"\nCPU Shift-And baseline ({len(literal_rules)} literal rules): "
          f"{cpu_hits} hits, carrying {matcher.state_bits} state bits "
          f"per input byte on the CPU --\nthe AP evaluates every rule "
          f"simultaneously in one pass, one symbol per cycle.")


if __name__ == "__main__":
    main()
