"""Unit consistency across the legacy cost records and RunResult.

The RunResult unification fixed inconsistent naming/units between
``MVPStats`` (energy/time), ``RunCost`` (energy/latency) and the arch
``SystemPoint`` (powers + throughput): the canonical accessors must all
speak joules and seconds, and the paper-unit metrics must be exact
conversions of them.
"""

import pytest

from repro.api import (
    ScenarioSpec,
    cost_from_mvp_stats,
    cost_from_run_cost,
    cost_from_system_point,
    run,
)
from repro.arch.metrics import EfficiencyMetrics, SystemPoint
from repro.mvp.processor import MVPStats
from repro.rram_ap.processor import RunCost


class TestCanonicalAccessors:
    def test_mvp_stats_si_accessors(self):
        stats = MVPStats(instructions=3, activations=2, program_cycles=7,
                         bit_operations=64, energy_joules=1.5e-9,
                         time_seconds=2.5e-7)
        assert stats.energy_joules == 1.5e-9
        assert stats.latency_seconds == stats.time_seconds == 2.5e-7

    def test_run_cost_si_accessors(self):
        cost = RunCost(symbols=10, latency_seconds=3e-8,
                       pipelined_time_seconds=1e-8, energy_joules=4e-12)
        assert cost.energy_joules == 4e-12
        assert cost.latency_seconds == 3e-8

    def test_system_point_si_accessors(self):
        point = SystemPoint(name="x", ops_per_second=2e9,
                            dynamic_power=1.0, static_power=0.5,
                            area_mm2=10.0)
        assert point.energy_per_op_joules == pytest.approx(1.5 / 2e9)
        assert point.latency_per_op_seconds == pytest.approx(0.5e-9)

    def test_efficiency_metrics_are_unit_conversions(self):
        """eta_E is pJ/op, eta_PE MOPs/mW, eta_PA MOPs/mm^2 -- exactly."""
        point = SystemPoint(name="x", ops_per_second=4e8,
                            dynamic_power=0.2, static_power=0.05,
                            area_mm2=8.0)
        metrics = EfficiencyMetrics.from_point(point)
        assert metrics.eta_e == pytest.approx(
            point.energy_per_op_joules * 1e12)
        assert metrics.eta_pe == pytest.approx(
            (point.ops_per_second / 1e6) / (point.total_power / 1e-3))
        assert metrics.eta_pa == pytest.approx(
            (point.ops_per_second / 1e6) / point.area_mm2)


class TestCostConverters:
    def test_mvp_stats_conversion(self):
        stats = MVPStats(instructions=5, activations=4, program_cycles=9,
                         bit_operations=128, energy_joules=2e-9,
                         time_seconds=1e-6)
        cost = cost_from_mvp_stats(stats)
        assert cost.energy_joules == stats.energy_joules
        assert cost.latency_seconds == stats.latency_seconds
        assert cost.counters == {
            "instructions": 5, "activations": 4, "program_cycles": 9,
            "bit_operations": 128,
        }

    def test_run_cost_conversion(self):
        rc = RunCost(symbols=42, latency_seconds=5e-8,
                     pipelined_time_seconds=2e-8, energy_joules=3e-12)
        cost = cost_from_run_cost(rc, area_mm2=1.25)
        assert cost.energy_joules == rc.energy_joules
        assert cost.latency_seconds == rc.latency_seconds
        assert cost.area_mm2 == 1.25
        assert cost.counters == {"symbols": 42}

    def test_system_point_conversion_scales_with_ops(self):
        point = SystemPoint(name="x", ops_per_second=1e9,
                            dynamic_power=1.0, static_power=0.0,
                            area_mm2=4.0)
        one = cost_from_system_point(point, ops=1)
        many = cost_from_system_point(point, ops=1000)
        assert many.energy_joules == pytest.approx(
            1000 * one.energy_joules)
        assert many.latency_seconds == pytest.approx(
            1000 * one.latency_seconds)
        assert one.area_mm2 == many.area_mm2 == 4.0

    def test_system_point_conversion_rejects_bad_ops(self):
        point = SystemPoint(name="x", ops_per_second=1e9,
                            dynamic_power=1.0, static_power=0.0,
                            area_mm2=4.0)
        with pytest.raises(ValueError):
            cost_from_system_point(point, ops=0)


class TestRunResultUnits:
    """End-to-end: every engine's RunResult speaks SI units."""

    def test_batched_item_costs_sum_to_total(self):
        result = run(ScenarioSpec(engine="mvp_batched",
                                  workload="database", size=128,
                                  items=2, batch=4))
        assert len(result.item_costs) == 4
        total_e = sum(c.energy_joules for c in result.item_costs)
        shared_t = result.item_costs[0].latency_seconds
        assert result.cost.energy_joules == pytest.approx(total_e)
        # Latency is shared across the batch (one control stream drives
        # all B arrays): items report the common timeline, and the run
        # total is that timeline -- not a B-fold sum.
        assert all(c.latency_seconds == pytest.approx(shared_t)
                   for c in result.item_costs)
        assert result.cost.latency_seconds == pytest.approx(shared_t)

    def test_ap_stream_costs_aggregate_to_total(self):
        result = run(ScenarioSpec(engine="rram_ap", workload="strings",
                                  size=128, items=2, batch=3))
        assert len(result.item_costs) == 3
        assert result.cost.energy_joules == pytest.approx(
            sum(c.energy_joules for c in result.item_costs))
        # Multi-stream mode services all live streams per kernel cycle:
        # wall latency is the longest stream's, not a per-stream sum.
        assert result.cost.latency_seconds == pytest.approx(
            max(c.latency_seconds for c in result.item_costs))
        assert result.cost.area_mm2 == result.item_costs[0].area_mm2

    def test_all_engines_report_finite_si_costs(self):
        specs = [
            ScenarioSpec(engine="mvp", workload="database", size=64),
            ScenarioSpec(engine="mvp_batched", workload="database",
                         size=64, batch=2),
            ScenarioSpec(engine="rram_ap", workload="dna", size=256,
                         items=2, batch=2),
            ScenarioSpec(engine="arch_model", workload="graph"),
        ]
        for spec in specs:
            cost = run(spec).cost
            assert cost.energy_joules > 0, spec.engine
            assert cost.latency_seconds > 0, spec.engine
            assert cost.area_mm2 >= 0, spec.engine
