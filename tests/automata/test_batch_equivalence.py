"""Property tests: batched AP execution == a loop of single-stream runs.

Covers both batch engines behind the unified ``run_batch`` API:

* :meth:`GenericAPModel.run_batch` -- traces *and* kernel counts must
  equal M sequential :meth:`run` calls, including ragged stream lengths
  and zero-length streams;
* :meth:`AutomataProcessor.run_batch` -- traces and per-stream costs on
  the matrix backend, plus an electrical-backend spot check.

The property suites use a 2-symbol alphabet and automata of a few
states; :class:`TestWorkloadScale` runs both engines at a benchmark
workload's size, where BLAS blocks the batched follow-vector product.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ScenarioSpec, adapter_for
from repro.automata import Alphabet, compile_regex, homogenize
from repro.automata.generic_ap import GenericAPModel
from repro.automata.paper_example import build_example_ap
from repro.rram_ap import AutomataProcessor

AB = Alphabet("ab")
PATTERNS = ["(a|b)*abb", "a(a|b)*b", "abab", "(ab)*a"]

streams = st.lists(
    st.text(alphabet="ab", min_size=0, max_size=12),
    min_size=1, max_size=6,
)


def _assert_traces_equal(batch_trace, single_trace):
    assert batch_trace.accepted == single_trace.accepted
    np.testing.assert_array_equal(batch_trace.active, single_trace.active)
    np.testing.assert_array_equal(
        batch_trace.accept_per_step, single_trace.accept_per_step
    )
    assert batch_trace.match_ends == single_trace.match_ends


class TestGenericModelEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(PATTERNS), streams, st.booleans())
    def test_traces_and_counts(self, pattern, seqs, unanchored):
        automaton = homogenize(compile_regex(pattern, AB))
        batched = GenericAPModel.from_homogeneous(automaton)
        looped = GenericAPModel.from_homogeneous(automaton)

        traces = batched.run_batch(seqs, unanchored=unanchored)
        singles = [looped.run(s, unanchored=unanchored) for s in seqs]

        for batch_trace, single_trace in zip(traces, singles):
            _assert_traces_equal(batch_trace, single_trace)
        assert batched.counts == looped.counts

    def test_empty_batch(self):
        assert build_example_ap().run_batch([]) == []

    def test_wide_fanin_does_not_overflow(self):
        """256 active predecessors must not wrap the matmul accumulator.

        Regression test: a narrow (uint8) accumulator in the batched
        follow-vector kernel wraps to zero at exactly 256 active
        predecessor states, silently killing the transition that every
        single-stream run takes.
        """
        n = 256
        alphabet = Alphabet("a")
        model_args = dict(
            ste=np.ones((1, n), dtype=bool),
            routing=np.ones((n, n), dtype=bool),
            start=np.ones(n, dtype=bool),
            accept=np.eye(1, n, 0, dtype=bool)[0],
        )
        batched = GenericAPModel(alphabet, **model_args)
        looped = GenericAPModel(alphabet, **model_args)
        traces = batched.run_batch(["aa", "a"])
        for text, trace in zip(["aa", "a"], traces):
            single = looped.run(text)
            _assert_traces_equal(trace, single)
            assert trace.accepted

    def test_zero_length_stream_counts_one_accept_read(self):
        batched = build_example_ap()
        looped = build_example_ap()
        traces = batched.run_batch([""])
        single = looped.run("")
        _assert_traces_equal(traces[0], single)
        assert batched.counts == looped.counts


class TestHardwareProcessorEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(PATTERNS), streams, st.booleans())
    def test_matrix_backend(self, pattern, seqs, unanchored):
        automaton = homogenize(compile_regex(pattern, AB))
        proc = AutomataProcessor(automaton)
        traces, costs = proc.run_batch(seqs, unanchored=unanchored)
        assert len(traces) == len(costs) == len(seqs)
        for seq, batch_trace, cost in zip(seqs, traces, costs):
            single_trace, single_cost = proc.run(seq, unanchored=unanchored)
            _assert_traces_equal(batch_trace, single_trace)
            assert cost == single_cost

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(PATTERNS), streams)
    def test_two_level_routing_backend(self, pattern, seqs):
        automaton = homogenize(compile_regex(pattern, AB))
        proc = AutomataProcessor(automaton, routing_style="two-level",
                                 block_size=4, port_budget=8)
        traces, _ = proc.run_batch(seqs)
        for seq, batch_trace in zip(seqs, traces):
            single_trace, _ = proc.run(seq)
            _assert_traces_equal(batch_trace, single_trace)

    def test_crossbar_backend_same_api(self):
        automaton = homogenize(compile_regex("abb", AB))
        proc = AutomataProcessor(automaton, backend="crossbar")
        seqs = ["abb", "ab", ""]
        traces, costs = proc.run_batch(seqs, unanchored=True)
        assert len(traces) == len(costs) == len(seqs)
        for seq, batch_trace in zip(seqs, traces):
            single_trace, _ = proc.run(seq, unanchored=True)
            _assert_traces_equal(batch_trace, single_trace)


#: The ``networking`` workload at the perfbench ``ap_scan`` shape: 8
#: merged IDS rules (about 200 states, |Sigma| = 42) scanning 16
#: payloads of 256 symbols.
NETWORKING = ScenarioSpec(engine="rram_ap", workload="networking",
                          size=256, items=8, batch=16, seed=7)


@pytest.fixture(scope="module")
def networking():
    """The merged automaton and its 16 streams cut to ragged lengths:
    the first to 0 symbols, the second kept whole, the rest at random."""
    adapter = adapter_for(NETWORKING, "rram_ap")
    streams = adapter.streams()
    rng = np.random.default_rng(11)
    cuts = [0, len(streams[1])] + [
        int(rng.integers(0, len(s) + 1)) for s in streams[2:]
    ]
    return adapter.build_automaton(), [s[:c] for s, c in zip(streams, cuts)]


class TestWorkloadScale:
    @pytest.mark.parametrize("unanchored", [False, True])
    def test_hardware_processor(self, networking, unanchored):
        automaton, seqs = networking
        proc = AutomataProcessor(automaton)
        traces, costs = proc.run_batch(seqs, unanchored=unanchored)
        assert len(traces) == len(costs) == len(seqs)
        for seq, batch_trace, cost in zip(seqs, traces, costs):
            single_trace, single_cost = proc.run(seq, unanchored=unanchored)
            _assert_traces_equal(batch_trace, single_trace)
            assert cost == single_cost
        if unanchored:
            assert any(t.match_ends for t in traces)

    @pytest.mark.parametrize("unanchored", [False, True])
    def test_generic_model(self, networking, unanchored):
        automaton, seqs = networking
        batched = GenericAPModel.from_homogeneous(automaton)
        looped = GenericAPModel.from_homogeneous(automaton)
        traces = batched.run_batch(seqs, unanchored=unanchored)
        assert len(traces) == len(seqs)
        for seq, batch_trace in zip(seqs, traces):
            single_trace = looped.run(seq, unanchored=unanchored)
            _assert_traces_equal(batch_trace, single_trace)
        assert batched.counts == looped.counts

    def test_no_accepting_state(self, networking):
        """An all-False Accept Vector never fires Eq. 4, on any stream."""
        automaton, seqs = networking
        model = GenericAPModel(
            automaton.alphabet,
            ste=automaton.ste_matrix(),
            routing=automaton.routing_matrix(),
            start=automaton.start_vector(),
            accept=np.zeros(automaton.n_states, dtype=bool),
        )
        traces = model.run_batch(seqs, unanchored=True)
        assert len(traces) == len(seqs)
        for seq, trace in zip(seqs, traces):
            assert trace.accept_per_step.shape == (len(seq),)
            assert not trace.accept_per_step.any()
            assert not trace.accepted
