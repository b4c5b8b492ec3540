"""Tests for DNA workload generation."""

import hashlib
import re

import numpy as np
import pytest

from repro.automata import homogenize
from repro.rram_ap import rram_ap
from repro.workloads import (
    make_motif_dataset,
    motif_nfa,
    motif_to_regex,
    plant_motif,
    random_sequence,
)


class TestSequenceGeneration:
    def test_length_and_alphabet(self):
        seq = random_sequence(np.random.default_rng(1), 500)
        assert len(seq) == 500
        assert set(seq) <= set("ACGT")

    def test_gc_content_respected(self):
        rng = np.random.default_rng(2)
        seq = random_sequence(rng, 20000, gc_content=0.7)
        gc = sum(1 for c in seq if c in "GC") / len(seq)
        assert gc == pytest.approx(0.7, abs=0.02)

    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            random_sequence(rng, -1)
        with pytest.raises(ValueError):
            random_sequence(rng, 10, gc_content=1.5)


class TestMotifConversion:
    def test_plain_bases_pass_through(self):
        assert motif_to_regex("ACGT") == "ACGT"

    def test_degenerate_codes_expand(self):
        assert motif_to_regex("TATAWR") == "TATA[AT][AG]"
        assert motif_to_regex("N") == "[ACGT]"

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError):
            motif_to_regex("AXC")

    def test_motif_nfa_matches_concretizations(self):
        nfa = motif_nfa("ARY")  # A [AG] [CT]
        for text in ["AAC", "AAT", "AGC", "AGT"]:
            assert nfa.accepts(text)
        assert not nfa.accepts("ACA")


class TestPlanting:
    def test_plant_overwrites(self):
        seq = plant_motif("AAAAAAAA", "CGT", 2)
        assert seq == "AACGTAAA"
        assert len(seq) == 8

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            plant_motif("AAAA", "CGT", 3)

    def test_dataset_has_planted_matches(self):
        rng = np.random.default_rng(7)
        ds = make_motif_dataset(rng, length=2000, motif="TATAWR",
                                n_plants=5)
        assert len(ds.planted_ends) == 5
        proc = rram_ap(homogenize(motif_nfa(ds.motif)))
        found = set(proc.find_matches(ds.sequence))
        assert set(ds.planted_ends) <= found  # spontaneous extras allowed

    @pytest.mark.parametrize("n_plants, length", [(4, 28), (5, 36)])
    def test_plants_that_fit_never_fail_by_seed(self, n_plants, length):
        """A crowded draw falls back to a start every m + 1 positions."""
        m = len("TATAWR")
        for seed in range(300):
            ds = make_motif_dataset(np.random.default_rng(seed), length,
                                    "TATAWR", n_plants)
            assert len(ds.sequence) == length
            starts = [end - m for end in ds.planted_ends]
            assert len(starts) == n_plants and starts[0] >= 0
            assert all(b >= a + m for a, b in zip(starts, starts[1:]))
            assert max(ds.planted_ends) <= length
            assert all(re.fullmatch(motif_to_regex("TATAWR"),
                                    ds.sequence[s:s + m])
                       for s in starts)

    @pytest.mark.parametrize("n_plants, length, seed, digest", [
        (4, 28, 0, "b7a81d756514627f"),
        (4, 28, 1, "b228962b769330be"),
        (5, 36, 2, "a7e4872f686a3aa5"),
        (3, 300, 7, "9985f810558af8fb"),
    ])
    def test_successful_draws_keep_their_dataset(self, n_plants, length,
                                                 seed, digest):
        ds = make_motif_dataset(np.random.default_rng(seed), length,
                                "TATAWR", n_plants)
        text = f"{ds.sequence}|{ds.planted_ends}"
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest

    def test_too_many_plants_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            make_motif_dataset(rng, length=20, motif="ACGTACGT",
                               n_plants=10)
