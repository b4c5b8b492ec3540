"""Tests for the generic AP model (Fig. 6, Eqs. 1-4)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import (
    Alphabet,
    GenericAPModel,
    compile_regex,
    homogenize,
)
from repro.automata.generic_ap import encode_streams
from repro.automata.paper_example import build_example_ap

AB = Alphabet("ab")


class TestWorkedExample:
    """The Section IV-B numbers, verbatim."""

    def setup_method(self):
        self.ap = build_example_ap()

    def test_symbol_vector_for_b(self):
        np.testing.assert_array_equal(
            self.ap.symbol_vector("b"), [True, False, True]
        )

    def test_follow_vector_from_s1(self):
        a = np.array([1, 0, 0], dtype=bool)
        np.testing.assert_array_equal(
            self.ap.follow_vector(a), [False, True, True]
        )

    def test_next_active_is_f_and_s(self):
        a = np.array([1, 0, 0], dtype=bool)
        np.testing.assert_array_equal(
            self.ap.next_active(a, "b"), [False, False, True]
        )

    def test_accept_output(self):
        assert self.ap.accept_value(np.array([0, 0, 1], dtype=bool)) is True
        assert self.ap.accept_value(np.array([1, 1, 0], dtype=bool)) is False

    def test_full_language(self):
        assert self.ap.accepts("b")
        assert self.ap.accepts("cb")
        for bad in ["", "a", "c", "bb", "ab", "ccb", "cbb"]:
            assert not self.ap.accepts(bad), bad

    def test_trace_rows(self):
        trace = self.ap.run("cb")
        np.testing.assert_array_equal(trace.active[0], [1, 0, 0])
        np.testing.assert_array_equal(trace.active[1], [0, 1, 0])
        np.testing.assert_array_equal(trace.active[2], [0, 0, 1])
        assert trace.match_ends == (2,)


class TestValidation:
    def test_shape_checks(self):
        al = Alphabet("ab")
        good_v = np.zeros((2, 3), dtype=bool)
        good_r = np.zeros((3, 3), dtype=bool)
        vec = np.zeros(3, dtype=bool)
        with pytest.raises(ValueError):
            GenericAPModel(al, np.zeros((3, 3)), good_r, vec, vec)
        with pytest.raises(ValueError):
            GenericAPModel(al, good_v, np.zeros((2, 3)), vec, vec)
        with pytest.raises(ValueError):
            GenericAPModel(al, good_v, good_r, np.zeros(2), vec)


class TestAgainstNFA:
    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="ab", max_size=12))
    def test_matches_nfa_on_random_inputs(self, text):
        nfa = compile_regex("(a|b)*abb", AB)
        ap = GenericAPModel.from_homogeneous(homogenize(nfa))
        assert ap.accepts(text) == nfa.accepts(text)

    @settings(max_examples=30, deadline=None)
    @given(st.text(alphabet="ab", max_size=12))
    def test_unanchored_matches_nfa(self, text):
        nfa = compile_regex("abb?a", AB)
        ap = GenericAPModel.from_homogeneous(homogenize(nfa))
        ours = ap.run(text, unanchored=True).match_ends
        theirs = nfa.simulate(text, unanchored=True).match_ends
        assert ours == theirs


class TestBatchExecution:
    def test_batch_equals_sequential(self):
        nfa = compile_regex("(a|b)*abb", AB)
        ap = GenericAPModel.from_homogeneous(homogenize(nfa))
        rng = np.random.default_rng(3)
        streams = [
            "".join(rng.choice(["a", "b"], size=10)) for _ in range(8)
        ]
        batch = ap.run_batch(streams)
        for stream, trace in zip(streams, batch):
            single = ap.run(stream)
            assert trace.accepted == single.accepted
            np.testing.assert_array_equal(trace.active, single.active)

    def test_batch_supports_ragged_streams(self):
        ap = build_example_ap()
        traces = ap.run_batch(["ab", "a"])
        for text, trace in zip(["ab", "a"], traces):
            single = build_example_ap().run(text)
            assert trace.accepted == single.accepted
            np.testing.assert_array_equal(trace.active, single.active)
            np.testing.assert_array_equal(
                trace.accept_per_step, single.accept_per_step
            )

    def test_empty_batch(self):
        assert build_example_ap().run_batch([]) == []

    def test_encode_streams_indexes_every_symbol(self):
        indices, lengths = encode_streams(AB, ["abba", "b", ""])
        np.testing.assert_array_equal(lengths, [4, 1, 0])
        np.testing.assert_array_equal(
            indices, [[0, 1, 1, 0], [1, 0, 0, 0], [0, 0, 0, 0]])

    def test_unknown_symbol_is_named(self):
        with pytest.raises(KeyError, match="'c'"):
            encode_streams(AB, ["ab", "abca"])
        with pytest.raises(KeyError, match="'z'"):
            build_example_ap().run_batch(["ab", "z"])


class TestKernelCounts:
    def test_counts_per_symbol(self):
        ap = build_example_ap()
        ap.run("cb")
        assert ap.counts.ste_reads == 2
        assert ap.counts.routing_reads == 2
        assert ap.counts.and_ops == 2
        assert ap.counts.accept_reads == 2
