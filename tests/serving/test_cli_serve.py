"""``repro serve`` CLI: request driving, metrics output, error paths."""

import json

import pytest

from repro.api.cli import main


class TestServe:
    def test_seed_variant_burst(self, capsys):
        assert main(["serve", "database", "--requests", "4",
                     "--engine", "mvp_batched", "--workers", "2",
                     "--pool-mode", "inline",
                     "--size", "96", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "served 4 requests" in out
        assert "requests: 4 admitted, 4 completed" in out
        assert "dispatches:" in out

    def test_metrics_json_snapshot(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(["serve", "database", "--requests", "4",
                     "--engine", "mvp_batched", "--workers", "1",
                     "--pool-mode", "inline", "--size", "96",
                     "--batch", "4",
                     "--metrics-json", str(metrics_path)]) == 0
        payload = json.loads(metrics_path.read_text())
        counters = payload["counters"]
        assert counters["service_requests_total"] == 4
        assert counters["service_completed_total"] == 4
        assert payload["gauges"]["pool_workers"] == 1
        assert counters["service_dispatched_requests_total"] == \
            counters["service_dispatches_total"]
        assert "p95_seconds" in \
            payload["histograms"]["service_time_seconds"]

    def test_cache_tier_round_trip(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        args = ["serve", "database", "--requests", "3",
                "--engine", "mvp_batched", "--pool-mode", "inline",
                "--size", "96", "--batch", "4", "--cache", cache_dir]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cache tier: 3 hits" in out
        assert "result cache:" in out

    def test_specs_file(self, tmp_path, capsys):
        specs_path = tmp_path / "specs.json"
        specs_path.write_text(json.dumps([
            {"engine": "mvp_batched", "workload": "database",
             "size": 96, "items": 2, "batch": 4, "seed": seed}
            for seed in (1, 2)
        ]))
        assert main(["serve", "--specs", str(specs_path),
                     "--pool-mode", "inline"]) == 0
        assert "served 2 requests" in capsys.readouterr().out

    def test_empty_specs_file_exits_2(self, tmp_path, capsys):
        specs_path = tmp_path / "specs.json"
        specs_path.write_text("[]")
        assert main(["serve", "--specs", str(specs_path)]) == 2
        assert "non-empty JSON list" in capsys.readouterr().err

    def test_invalid_specs_file_exits_2(self, tmp_path, capsys):
        specs_path = tmp_path / "specs.json"
        specs_path.write_text("{ not json")
        assert main(["serve", "--specs", str(specs_path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_zero_requests_exits_2(self, capsys):
        assert main(["serve", "database", "--requests", "0"]) == 2
        assert "--requests" in capsys.readouterr().err

    def test_bad_spec_exits_2(self, capsys):
        assert main(["serve", "no-such-scenario"]) == 2
        assert "unknown scenario" in capsys.readouterr().err
