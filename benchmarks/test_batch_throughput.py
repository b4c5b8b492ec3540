"""Throughput bench: batched vs looped execution (the batch-engine claim).

Measures ops/sec for the two batch engines against a loop of single-item
runs of the *same* workload:

* the MVP in-memory adder over B = 64 operand sets
  (:class:`~repro.mvp.batch.BatchedMVPProcessor` vs B single
  :class:`~repro.mvp.processor.MVPProcessor` runs);
* the automata processor over M = 64 input streams
  (:meth:`GenericAPModel.run_batch` vs M single ``run`` calls).

Asserts the >= 5x batched-throughput acceptance bar and persists the
perf trajectory to ``BENCH_batch.json`` plus a rendered report under
``results/`` (see ``benchmarks/conftest.py`` for where).  Set
``REPRO_BENCH_SMOKE=1`` to shrink the workloads (CI smoke mode); the
speedup bar holds in both modes because batching removes Python-level
dispatch, not numpy work.
"""

from __future__ import annotations

import numpy as np

from repro.automata.paper_example import build_example_ap
from repro.bench import (
    measure_throughput,
    smoke_mode,
    speedup,
    write_bench_json,
)
from repro.crossbar import Crossbar, CrossbarStack
from repro.mvp import (
    BatchedMVPProcessor,
    MVPProcessor,
    add_fast,
    load_unsigned,
)


BATCH = 64                       # the acceptance-criteria batch size
COLS = 16 if smoke_mode() else 32
BITS = 4 if smoke_mode() else 8
STREAM_LEN = 16 if smoke_mode() else 128
MIN_SPEEDUP = 5.0


def _adder_rows() -> int:
    # a, b, result (+carry), one scratch carry row, reserved ones row.
    return 3 * BITS + 4


def _operands(seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    shape = (BATCH, COLS)
    return (rng.integers(0, 2**BITS, shape),
            rng.integers(0, 2**BITS, shape))


def _mvp_adder_looped() -> None:
    a_vals, b_vals = _operands(7)
    for item in range(BATCH):
        p = MVPProcessor(Crossbar(_adder_rows(), COLS))
        a = load_unsigned(p, a_vals[item], bits=BITS, base_row=0)
        b = load_unsigned(p, b_vals[item], bits=BITS, base_row=BITS)
        add_fast(p, a, b, dest_row=2 * BITS, scratch_row=3 * BITS + 1)


def _mvp_adder_batched() -> None:
    a_vals, b_vals = _operands(7)
    p = BatchedMVPProcessor(CrossbarStack(BATCH, _adder_rows(), COLS))
    a = load_unsigned(p, a_vals, bits=BITS, base_row=0)
    b = load_unsigned(p, b_vals, bits=BITS, base_row=BITS)
    add_fast(p, a, b, dest_row=2 * BITS, scratch_row=3 * BITS + 1)


def _streams(seed: int) -> list[str]:
    ap = build_example_ap()
    rng = np.random.default_rng(seed)
    symbols = ap.alphabet.symbols
    return [
        "".join(symbols[i] for i in rng.integers(0, len(symbols), STREAM_LEN))
        for _ in range(BATCH)
    ]


def _ap_looped() -> None:
    ap = build_example_ap()
    for stream in _streams(11):
        ap.run(stream, unanchored=True)


def _ap_batched() -> None:
    ap = build_example_ap()
    ap.run_batch(_streams(11), unanchored=True)


def test_batch_throughput(save_report, bench_dir):
    """Batched engines must deliver >= 5x ops/sec over looped execution."""
    adds = BATCH * COLS  # element additions serviced per pass
    cycles = BATCH * STREAM_LEN  # stream-symbol cycles per pass
    results = [
        measure_throughput("mvp_adder_looped", _mvp_adder_looped, adds),
        measure_throughput("mvp_adder_batched", _mvp_adder_batched, adds),
        measure_throughput("ap_multistream_looped", _ap_looped, cycles),
        measure_throughput("ap_multistream_batched", _ap_batched, cycles),
    ]
    by_name = {r.name: r for r in results}
    speedups = {
        "mvp_adder_batch64": speedup(by_name["mvp_adder_batched"],
                                     by_name["mvp_adder_looped"]),
        "ap_multistream_batch64": speedup(by_name["ap_multistream_batched"],
                                          by_name["ap_multistream_looped"]),
    }
    write_bench_json(bench_dir / "BENCH_batch.json", results, speedups)

    headers = ["workload", "ops", "seconds", "ops_per_second"]
    rows = [(r.name, r.ops, r.seconds, r.ops_per_second) for r in results]
    lines = [
        f"batch throughput (B = {BATCH}, smoke = {smoke_mode()})",
        *(f"  {r.name:<24} {r.ops_per_second:>12.0f} ops/s" for r in results),
        *(f"  speedup {name}: {value:.1f}x"
          for name, value in speedups.items()),
    ]
    save_report("batch_throughput", "\n".join(lines),
                csv_headers=headers, csv_rows=rows)

    for name, value in speedups.items():
        assert value >= MIN_SPEEDUP, (
            f"{name}: batched execution is only {value:.2f}x the looped "
            f"throughput (need >= {MIN_SPEEDUP}x)"
        )
