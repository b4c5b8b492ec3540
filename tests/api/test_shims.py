"""Legacy entrypoints vs the facade: results must be identical.

The api engines delegate to the pre-facade public surfaces
(``MVPProcessor``, ``BatchedMVPProcessor``, ``GenericAPModel.run`` /
``AutomataProcessor``, ``run_fig4_sweep``, the figure drivers), which
stay supported.  These tests drive each legacy entrypoint by hand on
the workload the facade generates for the same spec and assert the two
paths agree bit-for-bit -- the backward-compatibility contract of the
API redesign.
"""

import numpy as np
import pytest

from repro.api import ScenarioSpec, adapter_for, run
from repro.api.figures import FIGURES
from repro.arch.sweep import run_fig4_sweep
from repro.automata.generic_ap import GenericAPModel
from repro.crossbar import Crossbar, CrossbarStack
from repro.mvp import BatchedMVPProcessor, MVPProcessor
from repro.rram_ap.processor import AutomataProcessor


class TestMVPShim:
    def test_legacy_processor_matches_facade(self):
        spec = ScenarioSpec(engine="mvp", workload="database", size=128,
                            items=3, seed=3)
        facade = run(spec)

        adapter = adapter_for(spec, "mvp")
        rows, cols = adapter.mvp_geometry()
        legacy = MVPProcessor(Crossbar(rows, cols))
        counts = [
            int(legacy.execute(program)[-1])
            for program in adapter.mvp_programs()
        ]
        assert counts == facade.outputs["counts"]
        assert legacy.stats.energy_joules == pytest.approx(
            facade.cost.energy_joules)
        assert legacy.stats.latency_seconds == pytest.approx(
            facade.cost.latency_seconds)

    def test_legacy_lowering_is_instruction_identical(self):
        """The facade runs BitmapIndex.to_mvp_program verbatim."""
        spec = ScenarioSpec(engine="mvp", workload="database", size=64,
                            items=2, seed=7)
        adapter = adapter_for(spec, "mvp")
        for query, (program, rows_used) in zip(adapter._queries,
                                               adapter._programs):  # white-box
            legacy_program, legacy_rows = \
                adapter._indexes[0].to_mvp_program(query)
            assert program == legacy_program
            assert rows_used == legacy_rows


class TestBatchedMVPShim:
    def test_legacy_batched_processor_matches_facade(self):
        spec = ScenarioSpec(engine="mvp_batched", workload="database",
                            size=128, items=3, batch=4, seed=3)
        facade = run(spec)

        adapter = adapter_for(spec, "mvp_batched")
        rows, cols = adapter.mvp_geometry()
        legacy = BatchedMVPProcessor(
            CrossbarStack(spec.batch, rows, cols))
        counts = [
            [int(c) for c in legacy.execute(program)[-1]]
            for program in adapter.mvp_programs()
        ]
        assert counts == facade.outputs["counts"]
        for item in range(spec.batch):
            stats = legacy.stats_for(item)
            assert stats.energy_joules == pytest.approx(
                facade.item_costs[item].energy_joules)


class TestGenericAPShim:
    @pytest.mark.parametrize("workload,spec_kw", [
        ("dna", dict(size=300, items=2, batch=3)),
        ("strings", dict(size=96, items=3, batch=3)),
        ("datamining", dict(size=24, items=3, batch=6)),
    ])
    def test_generic_ap_run_matches_facade(self, workload, spec_kw):
        """GenericAPModel.run per stream == facade rram_ap traces."""
        spec = ScenarioSpec(engine="rram_ap", workload=workload, seed=2,
                            **spec_kw)
        facade = run(spec)

        adapter = adapter_for(spec, "rram_ap")
        model = GenericAPModel.from_homogeneous(adapter.build_automaton())
        traces = [
            model.run(stream, unanchored=adapter.unanchored)
            for stream in adapter.streams()
        ]
        legacy_outputs = adapter.check_ap(traces)
        facade_outputs = dict(facade.outputs)
        facade_outputs.pop("accepted")
        assert legacy_outputs == facade_outputs

    def test_hardware_ap_costs_match_facade(self):
        spec = ScenarioSpec(engine="rram_ap", workload="dna", size=300,
                            items=2, batch=2, seed=2)
        facade = run(spec)
        adapter = adapter_for(spec, "rram_ap")
        legacy = AutomataProcessor(adapter.build_automaton())
        _, costs = legacy.run_batch(adapter.streams(),
                                    unanchored=adapter.unanchored)
        assert facade.cost.energy_joules == pytest.approx(
            sum(c.energy_joules for c in costs))
        # Per-stream legacy costs are preserved verbatim in item_costs;
        # the run total takes the parallel multi-stream timeline (max).
        for item, legacy_cost in zip(facade.item_costs, costs):
            assert item.latency_seconds == pytest.approx(
                legacy_cost.latency_seconds)
        assert facade.cost.latency_seconds == pytest.approx(
            max(c.latency_seconds for c in costs))


class TestArchShim:
    def test_run_fig4_sweep_matches_facade(self):
        spec = ScenarioSpec(engine="arch_model", workload="database")
        facade = run(spec)

        adapter = adapter_for(spec, "arch_model")
        sweep = run_fig4_sweep(workload=adapter.arch_workload())
        for metric in ("eta_pe", "eta_e", "eta_pa"):
            assert facade.outputs["improvement_geomean"][metric] == \
                pytest.approx(sweep.geometric_mean_ratio(metric))
            lo, hi = sweep.ratio_range(metric)
            assert facade.outputs["improvement_range"][metric] == \
                pytest.approx((lo, hi))
        assert facade.cost.counters["grid_points"] == len(sweep.points)


class TestFigureShims:
    def test_registry_wraps_legacy_drivers(self):
        """FIGURES entries rerun the same analysis.figures code."""
        from repro.analysis.figures import fig3_scouting, fig5_homogeneous
        text3, claims3 = FIGURES.get("fig3").regenerate()
        assert text3 == fig3_scouting().render()
        assert claims3 == []
        text5, _ = FIGURES.get("fig5").regenerate()
        assert text5 == fig5_homogeneous().render()

    def test_all_six_figures_registered(self):
        assert FIGURES.names() == (
            "fig1", "fig3", "fig4", "fig5", "fig6", "fig9",
        )


class TestSeedIsolation:
    def test_adapter_rng_is_spec_scoped(self):
        """Global numpy RNG state does not leak into facade results."""
        spec = ScenarioSpec(engine="rram_ap", workload="strings",
                            size=96, items=2, batch=2, seed=4)
        np.random.seed(0)
        first = run(spec)
        np.random.seed(12345)
        second = run(spec)
        assert first.outputs == second.outputs
