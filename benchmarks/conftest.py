"""Shared helpers for the figure-regeneration benches.

Every bench regenerates one paper figure (or claim set), times its kernel
with pytest-benchmark, asserts the paper's *shape* holds, and persists the
rows/series under ``results/`` so the regenerated figures are inspectable
without re-running anything.

Benches rewrite the checked-in ``BENCH_*.json`` and ``results/*`` only
under ``REPRO_BENCH_WRITE=1`` (a deliberate re-baseline); otherwise they
write the same files under pytest's temporary directory, so a test run
leaves the tree clean.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis.tables import write_csv
from repro.bench import write_mode

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def bench_dir(tmp_path_factory) -> Path:
    """Where benches write ``BENCH_*.json`` and ``results/``."""
    return REPO_ROOT if write_mode() else tmp_path_factory.mktemp("bench")


@pytest.fixture()
def save_report(bench_dir):
    """Persist a bench's rendered text and CSV rows under results/."""

    def _save(name: str, text: str, csv_headers=None, csv_rows=None) -> None:
        results = bench_dir / "results"
        results.mkdir(parents=True, exist_ok=True)
        (results / f"{name}.txt").write_text(text + "\n")
        if csv_headers is not None and csv_rows is not None:
            write_csv(results / f"{name}.csv", csv_headers, csv_rows)
        print(f"\n{text}\n[saved to {results / name}.txt]")

    return _save
