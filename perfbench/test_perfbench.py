"""The benchmark's own checks.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

import dataclasses
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import run  # noqa: E402
from measure import LayerTimer  # noqa: E402


@pytest.fixture
def workload(tmp_path):
    return harness.MvpQuery(seed=0, workdir=tmp_path)


def test_pinned_canary_passes(workload):
    workload.start()
    assert (workload.attempted, workload.failed) == (1, 0)
    assert workload.correct


def test_ledger_off_the_pinned_digest_counts_as_failed(workload, monkeypatch):
    honest = workload.canary()
    drifted = [
        dataclasses.replace(r, cost=dataclasses.replace(
            r.cost, energy_joules=r.cost.energy_joules * (1 + 1e-12)))
        for r in honest
    ]
    assert all(harness.healthy(r) for r in drifted)
    monkeypatch.setattr(workload, "canary", lambda: drifted)
    workload.start()
    assert (workload.attempted, workload.failed) == (1, 1)
    assert not workload.correct


def test_failed_golden_check_counts_as_failed(workload, monkeypatch):
    result = workload.canary()[0]
    broken = dataclasses.replace(
        result, outputs={**result.outputs, "checks_passed": False})
    monkeypatch.setattr(workload, "op", lambda spec: [broken])
    workload.safe_op(workload.spec(1))
    assert (workload.attempted, workload.failed) == (1, 1)
    assert not workload.correct


def test_layer_timer_bills_nested_calls_to_their_own_layer():
    timer = LayerTimer()
    inner = timer.wrap("inner", lambda: sum(range(200_000)))
    timer.call("outer", lambda: [inner() for _ in range(3)])
    assert timer.totals["inner"] > 0
    assert timer.totals["outer"] < timer.totals["inner"]


def test_low_coverage_fails_the_traced_run(monkeypatch, capsys):
    half_covered = harness.TracedOp(1.0, {"mvm.kernel": 0.5}, {})
    metrics = harness.layer_metrics([half_covered])
    assert metrics["trace.coverage_pct"] == pytest.approx(50)
    assert metrics["api.facade_ms"] == pytest.approx(500)
    monkeypatch.setattr(harness.MvpQuery, "traced",
                        lambda self, seconds: metrics)
    assert run.main(["--workload", "mvp_query", "--trace", "1"]) == 1
    assert "under 90%" in capsys.readouterr().err


def test_traced_runs_measure_every_catalogued_layer(tmp_path):
    bench = run.catalogue()
    names = [w["name"] for w in bench["workloads"]]
    assert sorted(names) == sorted(harness.WORKLOADS)
    measured = set()
    for name in names:
        workload = harness.WORKLOADS[name](seed=0, workdir=tmp_path)
        workload.start()
        try:
            measured |= set(workload.traced(0.2))
        finally:
            workload.close()
        assert (workload.failed, workload.correct) == (0, True)
    assert measured == {m["name"] for m in bench["per_layer"]}


def test_end_to_end_values_match_the_catalogue():
    timing = harness.Timing([0.1, 0.2, 0.3], [1, 1, 1], 0.6,
                            probes=[3e-3] * 3)
    values = run.end_to_end_values(timing, [1.0],
                                   types.SimpleNamespace(megabytes=80.0))
    assert set(values) == {m["name"] for m in run.catalogue()["end_to_end"]}


def test_open_loop_is_scaled_and_counts_runs_per_wall_second():
    timing = harness.Timing([0.2] * 4, [1] * 4, 2.0, probes=[6e-3] * 4,
                            open_loop=True)
    values = run.end_to_end_values(timing, [1.0],
                                   types.SimpleNamespace(megabytes=80.0))
    assert values["runs_per_s"] == pytest.approx(2.0)
    assert values["latency_p50_ms"] == pytest.approx(100.0)


def test_open_loop_requests_go_with_the_probes_nearest_them():
    probes = [(float(t), 1e-3 if t < 30 else 2e-3) for t in range(60)]
    assert harness.nearest_probe(probes, 5.0) == pytest.approx(1e-3)
    assert harness.nearest_probe(probes, 50.0) == pytest.approx(2e-3)
