"""The paired overhead estimator: balanced order, median ratios."""

import pytest

import repro.bench as bench
from repro.bench import paired_comparison


class FakeClock:
    """A perf_counter stand-in advanced by the timed callables."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def timed_paths(monkeypatch, costs):
    """Callables that each advance a fake clock by their next cost."""
    clock = FakeClock()
    monkeypatch.setattr(bench.time, "perf_counter", clock)
    calls = []

    def path(name):
        def run():
            calls.append(name)
            clock.now += costs[name].pop(0)
        return run

    return path("base"), path("cand"), calls


def test_order_alternates_so_each_path_leads_half_the_pairs(monkeypatch):
    base, cand, calls = timed_paths(
        monkeypatch, {"base": [1.0] * 4, "cand": [1.0] * 4})
    paired_comparison(("b", base), ("c", cand), ops=1, pairs=4)
    assert calls == ["base", "cand", "cand", "base",
                     "base", "cand", "cand", "base"]


def test_ratio_is_the_median_of_pair_ratios(monkeypatch):
    # Pair ratios 2.0, 2.0, 0.5: the outlying third pair would pull a
    # mean down; the median ignores it.
    base, cand, _ = timed_paths(
        monkeypatch, {"base": [2.0, 4.0, 1.0], "cand": [1.0, 2.0, 2.0]})
    b, c, ratio = paired_comparison(("b", base), ("c", cand), ops=10,
                                    pairs=3)
    assert ratio == 2.0
    assert (b.name, b.seconds, b.ops_per_second, b.repeats) == \
        ("b", 2.0, 5.0, 3)
    assert (c.name, c.seconds, c.ops_per_second) == ("c", 2.0, 5.0)


def test_rejects_empty_inputs():
    with pytest.raises(ValueError, match="ops"):
        paired_comparison(("b", lambda: None), ("c", lambda: None), ops=0)
    with pytest.raises(ValueError, match="pairs"):
        paired_comparison(("b", lambda: None), ("c", lambda: None), ops=1,
                          pairs=0)
