"""Cross-module integration tests: whole-stack scenarios.

These exercise the paths a user of the library would actually run: regex
-> NFA -> homogeneous -> hardware AP on all backends; database query ->
MVP program -> crossbar execution; the host offload model against the
analytic Fig. 4 model; and device physics feeding the circuit layer.
"""

import numpy as np
import pytest

from repro.arch import MissRates, MVPSystemModel, WorkloadParameters
from repro.automata import (
    GenericAPModel,
    compile_regex,
    homogenize,
)
from repro.automata.symbols import Alphabet
from repro.crossbar import Crossbar, ScoutingLogic
from repro.devices import BipolarSwitch, DeviceParameters
from repro.mvp import HostSystem, Instruction, MVPProcessor
from repro.rram_ap import all_implementations, rram_ap
from repro.workloads import (
    BitmapIndex,
    make_ids_workload,
    make_motif_dataset,
    motif_nfa,
    random_query,
    random_table,
)


class TestRegexToHardwarePipeline:
    """regex string -> NFA -> homogeneous -> three hardware APs."""

    @pytest.mark.parametrize("pattern", [
        "(a|b)*abb", "a{2,4}b", "a(b|c)+d", "[ab]c*[cd]",
    ])
    def test_five_way_agreement(self, pattern):
        alphabet = Alphabet("abcd")
        nfa = compile_regex(pattern, alphabet)
        ha = homogenize(nfa)
        gm = GenericAPModel.from_homogeneous(ha)
        procs = all_implementations(ha)
        rng = np.random.default_rng(17)
        for _ in range(15):
            text = "".join(rng.choice(list("abcd"), size=10))
            expected = nfa.accepts(text)
            assert ha.accepts(text) == expected
            assert gm.accepts(text) == expected
            for name, proc in procs.items():
                assert proc.run(text)[0].accepted == expected, (pattern,
                                                                text, name)


class TestDnaMotifScenario:
    def test_motif_search_on_rram_ap_counts_plants(self):
        rng = np.random.default_rng(29)
        ds = make_motif_dataset(rng, length=3000, motif="TATAWR",
                                n_plants=8)
        proc = rram_ap(homogenize(motif_nfa(ds.motif)))
        matches = set(proc.find_matches(ds.sequence))
        assert set(ds.planted_ends) <= matches

    def test_crossbar_backend_on_dna(self):
        rng = np.random.default_rng(31)
        ds = make_motif_dataset(rng, length=300, motif="ACGT", n_plants=3)
        ha = homogenize(motif_nfa(ds.motif))
        electrical = rram_ap(ha, backend="crossbar")
        functional = rram_ap(ha, backend="matrix")
        assert (electrical.find_matches(ds.sequence)
                == functional.find_matches(ds.sequence))


class TestIDSScenario:
    def test_multi_rule_detection_costs(self):
        workload = make_ids_workload(np.random.default_rng(37), n_rules=6,
                                     payload_length=400, n_attacks=2)
        total_energy = {}
        for name in ("RRAM-AP", "SRAM-AP"):
            energy = 0.0
            for rule in workload.rules:
                proc = all_implementations(
                    homogenize(rule.compile())
                )[name]
                _, cost = proc.run(workload.payload, unanchored=True)
                energy += cost.energy_joules
            total_energy[name] = energy
        assert total_energy["RRAM-AP"] < total_energy["SRAM-AP"]
        ratio = 1 - total_energy["RRAM-AP"] / total_energy["SRAM-AP"]
        assert ratio == pytest.approx(0.59, abs=0.05)


class TestDatabaseScenario:
    def test_query_on_mvp_equals_golden_many_seeds(self):
        table = random_table(np.random.default_rng(41), 128, [6, 4, 3])
        index = BitmapIndex(table)
        for seed in range(8):
            query = random_query(np.random.default_rng(seed), [6, 4, 3],
                                 n_terms=2)
            program, rows = index.to_mvp_program(query)
            mvp = MVPProcessor(Crossbar(rows + 1, 128))
            assert mvp.execute(program)[-1] == index.count(query)

    def test_host_offload_accounting(self):
        table = random_table(np.random.default_rng(43), 64, [4, 4])
        index = BitmapIndex(table)
        query = random_query(np.random.default_rng(1), [4, 4])
        program, rows = index.to_mvp_program(query)
        host = HostSystem(MVPProcessor(Crossbar(rows + 1, 64)))
        host.run_cpu_ops(500)  # the non-offloadable 30%
        host.offload(program)
        report = host.report()
        assert report.mvp_bit_operations > 0
        assert report.total_energy > 0
        # In-memory ops must be far cheaper than CPU ops per operation.
        cpu_per_op = report.cpu_energy_joules / report.cpu_ops
        mvp_per_op = report.mvp_energy_joules / report.mvp_bit_operations
        assert mvp_per_op < cpu_per_op


class TestDeviceToCircuitAgreement:
    def test_bipolar_switch_respects_circuit_read_voltages(self):
        """The crossbar read voltage must be inside the device dead zone."""
        device = BipolarSwitch(DeviceParameters(), state=1.0)
        xb = Crossbar(2, 2, params=device.params)
        assert not device.is_disturbed_by(xb.read_voltage)
        # Multi-row activation halves per-cell voltage at worst; still safe.
        assert not device.is_disturbed_by(xb.read_voltage / 2)

    def test_scouting_on_programmed_devices(self):
        """Program bits through device dynamics, then compute with them."""
        params = DeviceParameters()
        word_a = [1, 0, 1, 0]
        word_b = [1, 1, 0, 0]
        xb = Crossbar(2, 4, params=params)
        for col, (a, b) in enumerate(zip(word_a, word_b)):
            dev_a = BipolarSwitch(params, state=0.0)
            dev_a.step(1.5 if a else -1.0, dt=1e-8)
            xb.write(0, col, dev_a.as_bit())
            dev_b = BipolarSwitch(params, state=0.0)
            dev_b.step(1.5 if b else -1.0, dt=1e-8)
            xb.write(1, col, dev_b.as_bit())
        logic = ScoutingLogic(xb)
        np.testing.assert_array_equal(
            logic.or_rows([0, 1]), np.array(word_a) | np.array(word_b)
        )


class TestFunctionalVsAnalyticEnergy:
    def test_mvp_simulator_energy_within_analytic_model_band(self):
        """The functional simulator's per-op energy must be of the same
        magnitude as the analytic model's e_cim_op (both ~1 pJ/bit op)."""
        mvp = MVPProcessor(Crossbar(8, 512))
        mvp.execute([Instruction.vload(0, [1] * 512),
                     Instruction.vload(1, [0, 1] * 256)])
        start_energy = mvp.stats.energy_joules
        start_bits = mvp.stats.bit_operations
        mvp.execute([Instruction.vor(0, 1), Instruction.vand(0, 1)])
        per_bit = (mvp.stats.energy_joules - start_energy) / (
            mvp.stats.bit_operations - start_bits
        )
        model = MVPSystemModel()
        analytic = model.energy.e_cim_op
        assert 0.01 * analytic < per_bit < 100 * analytic

    def test_offload_fraction_feeds_arch_model(self):
        """The Fig. 4 model consumes the fraction the runtime measures."""
        mvp = MVPProcessor(Crossbar(8, 512))
        host = HostSystem(mvp)
        host.run_cpu_ops(300)
        host.offload([Instruction.vload(0, [1] * 512),
                      Instruction.vor(0)])
        fraction = host.report().offloaded_fraction
        workload = WorkloadParameters(accelerated_fraction=fraction)
        point = MVPSystemModel().evaluate(MissRates(0.3, 0.3), workload)
        assert point.ops_per_second > 0
