"""CLI observability surface: ``run --trace``, ``trace summarize``,
``serve --metrics-json``, and the SIGTERM stats flush."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api.cli import main
from repro.obs.export import read_spans
from repro.obs.metrics import exposition_problems, render_prometheus
from repro.obs.trace import active_tracer, deactivate_tracer

REPO_ROOT = Path(__file__).resolve().parents[2]

RUN_FLAGS = ["--engine", "analog_mvm", "--workload", "mlp_inference",
             "--size", "12", "--items", "4", "--batch", "4",
             "--seed", "3"]


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    deactivate_tracer()
    yield
    deactivate_tracer()


class TestRunTrace:
    def test_chrome_trace_written(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        assert main(["run", *RUN_FLAGS, "--trace", str(trace)]) == 0
        assert "[trace saved to" in capsys.readouterr().out
        payload = json.loads(trace.read_text())
        assert "traceEvents" in payload
        names = {e["name"] for e in payload["traceEvents"]}
        assert {"engine.run", "window.execute", "mvm.kernel"} <= names

    def test_jsonl_trace_written(self, tmp_path):
        trace = tmp_path / "run.jsonl"
        assert main(["run", *RUN_FLAGS, "--trace", str(trace)]) == 0
        records = read_spans(trace)
        assert len({rec.trace_id for rec in records}) == 1
        assert any(rec.name == "engine.run" for rec in records)

    def test_tracer_deactivated_after_run(self, tmp_path):
        main(["run", *RUN_FLAGS, "--trace", str(tmp_path / "t.json")])
        assert active_tracer() is None

    def test_sharded_run_trace_includes_workers(self, tmp_path):
        trace = tmp_path / "sharded.jsonl"
        assert main(["run", *RUN_FLAGS, "--workers", "2",
                     "--trace", str(trace)]) == 0
        names = {rec.name for rec in read_spans(trace)}
        assert {"shards.dispatch", "shard.window",
                "shards.merge"} <= names


class TestTraceSummarize:
    def test_renders_table_and_csv(self, tmp_path, capsys):
        trace = tmp_path / "run.json"
        main(["run", *RUN_FLAGS, "--trace", str(trace)])
        capsys.readouterr()
        csv_path = tmp_path / "stages.csv"
        assert main(["trace", "summarize", str(trace),
                     "--csv", str(csv_path)]) == 0
        out = capsys.readouterr().out
        assert "trace summary" in out
        assert "mvm.kernel" in out
        header = csv_path.read_text().splitlines()[0]
        assert header.split(",") == ["stage", "count", "total_seconds",
                                     "mean_seconds", "share_pct"]

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["trace", "summarize",
                     str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err


class TestServeMetricsJson:
    def test_merged_metrics_written(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(["serve", *RUN_FLAGS, "--requests", "3",
                     "--pool-mode", "inline", "--workers", "1",
                     "--metrics-json", str(metrics_path)]) == 0
        assert "[metrics saved to" in capsys.readouterr().out
        snapshot = json.loads(metrics_path.read_text())
        assert set(snapshot) == {"counters", "gauges", "histograms"}
        counters = snapshot["counters"]
        assert any(key.startswith("service_") for key in counters)
        assert any(key.startswith("pool_") for key in counters)
        # The snapshot renders to a lintably-clean exposition.
        assert exposition_problems(render_prometheus(snapshot)) == []


class TestServeSignalFlush:
    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_interrupt_still_flushes_stats(self, tmp_path, signum):
        metrics_path = tmp_path / "metrics.json"
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        # A burst far larger than the interrupt window so the signal
        # always lands mid-serve.
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *RUN_FLAGS,
             "--size", "48", "--batch", "16", "--requests", "500",
             "--pool-mode", "inline", "--workers", "1",
             "--metrics-json", str(metrics_path)],
            env=env, cwd=REPO_ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        try:
            time.sleep(4.0)  # imports + service startup + some serving
            proc.send_signal(signum)
            stdout, stderr = proc.communicate(timeout=60)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        assert proc.returncode == 130, (
            f"rc={proc.returncode}\nstdout:\n{stdout}\n"
            f"stderr:\n{stderr}")
        assert "interrupted: flushing stats" in stderr
        metrics = json.loads(metrics_path.read_text())
        assert "service_requests_total" in metrics["counters"]
        assert set(metrics) == {"counters", "gauges", "histograms"}
