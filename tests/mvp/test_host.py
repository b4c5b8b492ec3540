"""Tests for the host offload runtime."""

import pytest

from repro.crossbar import Crossbar
from repro.mvp import HostSystem, Instruction, MVPProcessor


def make_host():
    return HostSystem(MVPProcessor(Crossbar(8, 16)))


class TestOffload:
    def test_offload_returns_host_bound_values(self):
        host = make_host()
        out = host.offload([
            Instruction.vload(0, [1] * 16),
            Instruction.vor(0),
            Instruction.popcount(),
        ])
        assert out == [16]

    def test_dispatch_counts_one_cpu_op(self):
        host = make_host()
        host.offload([Instruction.vload(0, [0] * 16)])
        assert host.cpu_ops == 1

    def test_run_cpu_ops_accumulates(self):
        host = make_host()
        host.run_cpu_ops(100)
        host.run_cpu_ops(50)
        assert host.cpu_ops == 150

    def test_negative_cpu_ops_rejected(self):
        with pytest.raises(ValueError):
            make_host().run_cpu_ops(-1)


class TestReport:
    def test_report_splits_energy_and_time(self):
        host = make_host()
        host.run_cpu_ops(1000)
        host.offload([
            Instruction.vload(0, [1] * 16),
            Instruction.vor(0),
        ])
        report = host.report()
        assert report.cpu_ops == 1001
        assert report.mvp_instructions == 2
        assert report.cpu_energy_joules > 0
        assert report.mvp_energy_joules > 0
        assert report.total_energy == pytest.approx(
            report.cpu_energy_joules + report.mvp_energy_joules
        )
        assert report.total_time == pytest.approx(
            report.cpu_time_seconds + report.mvp_time_seconds
        )

    def test_offloaded_fraction(self):
        host = make_host()
        host.run_cpu_ops(15)
        host.offload([
            Instruction.vload(0, [1] * 16),
            Instruction.vor(0),  # 16 bit ops
        ])
        report = host.report()
        assert report.offloaded_fraction == pytest.approx(16 / 32)

    def test_fresh_host_reports_zero(self):
        report = make_host().report()
        assert report.cpu_ops == 0
        assert report.offloaded_fraction == 0.0

    def test_preexisting_mvp_stats_excluded(self):
        mvp = MVPProcessor(Crossbar(8, 16))
        mvp.execute([Instruction.vload(0, [1] * 16)])
        host = HostSystem(mvp)
        report = host.report()
        assert report.mvp_instructions == 0
        assert report.mvp_energy_joules == 0.0
