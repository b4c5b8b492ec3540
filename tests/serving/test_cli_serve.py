"""``repro serve`` CLI: request driving, stats output, error paths."""

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

    def test_stats_json_snapshot(self, tmp_path, capsys):
        stats_path = tmp_path / "stats.json"
        assert main(["serve", "database", "--requests", "4",
                     "--engine", "mvp_batched", "--workers", "1",
                     "--pool-mode", "inline", "--size", "96",
                     "--batch", "4",
                     "--stats-json", str(stats_path)]) == 0
        payload = json.loads(stats_path.read_text())
        assert payload["requests"] == 4
        assert payload["completed"] == 4
        assert payload["pool"]["workers"] == 1
        assert payload["dispatched_requests"] == payload["dispatches"]
        assert "p95_seconds" in payload["service_time"]

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
