"""Property tests: every AP stepping path equals the per-symbol oracle.

``batched_matrix_steps`` is the one stepping kernel in the package:
``run_batch`` steps M streams through it and ``run`` is a batch of one,
on :class:`GenericAPModel` and on the matrix backend of
:class:`AutomataProcessor` alike.  The oracle (``scalar_ap.py``, the
``scalar_ap`` fixture) steps each stream alone, one symbol at a time,
through the model's ``next_active`` and ``accept_value``.  Both paths
must reproduce its traces and kernel counts exactly, including ragged
and zero-length streams and unanchored re-arming, and the processor's
per-stream costs must price each stream's symbols.  The electrical
"crossbar" backend keeps its own per-read loop and is checked against
the oracle too.

The pattern property suites use a 2-symbol alphabet and automata of a
few states.  The kernel steps Active Vectors packed 64 states to a word
and looks Eq. 2 up per byte of 8 states, so a random-model suite draws
automata over 3 symbols whose state counts sit at and around those
byte and word boundaries, with start and accept states anywhere.
:class:`TestWorkloadScale` runs both paths on each of the four AP
workloads, anchored and unanchored, networking at the benchmark's size
(206 states), where each Follow lookup ORs one table entry from each of
26 byte groups into 4 words.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ScenarioSpec, adapter_for
from repro.automata import Alphabet, compile_regex, homogenize
from repro.automata.generic_ap import GenericAPModel
from repro.automata.paper_example import build_example_ap
from repro.rram_ap import AutomataProcessor
from repro.rram_ap.processor import RunCost

AB = Alphabet("ab")
PATTERNS = ["(a|b)*abb", "a(a|b)*b", "abab", "(ab)*a"]

streams = st.lists(
    st.text(alphabet="ab", min_size=0, max_size=12),
    min_size=1, max_size=6,
)

#: State counts at and around the kernel's byte (8-state) and word
#: (64-state) boundaries.
BOUNDARY_STATES = [1, 7, 8, 9, 63, 64, 65, 127, 129, 255, 256, 257]
#: Routing, start and accept densities, from none to all.
DENSITIES = st.sampled_from([0.0, 0.02, 0.1, 0.3, 0.6, 1.0])
ABC = Alphabet("abc")


def _assert_traces_equal(got, want):
    assert got.accepted == want.accepted
    np.testing.assert_array_equal(got.active, want.active)
    np.testing.assert_array_equal(got.accept_per_step, want.accept_per_step)
    assert got.match_ends == want.match_ends


def _assert_generic_matches_oracle(scalar_ap, make_model, seqs,
                                   unanchored=False):
    """``run_batch`` over all streams and ``run`` per stream, each on a
    fresh model, equal the oracle's traces and kernel counts."""
    oracle = make_model()
    wants = [scalar_ap.run(oracle, s, unanchored=unanchored) for s in seqs]
    batched = make_model()
    traces = batched.run_batch(seqs, unanchored=unanchored)
    single = make_model()
    singles = [single.run(s, unanchored=unanchored) for s in seqs]
    assert len(traces) == len(seqs)
    for got_batch, got_single, want in zip(traces, singles, wants):
        _assert_traces_equal(got_batch, want)
        _assert_traces_equal(got_single, want)
    assert batched.counts == oracle.counts
    assert single.counts == oracle.counts


def _priced(proc, symbols):
    """A stream's cost: every symbol one priced kernel cycle."""
    chip = proc.chip_cost()
    return RunCost(
        symbols=symbols,
        latency_seconds=symbols * chip.symbol_latency(),
        pipelined_time_seconds=symbols * proc.kernel.delay_seconds,
        energy_joules=symbols * chip.symbol_energy(),
    )


def _assert_processor_matches_oracle(scalar_ap, proc, seqs,
                                     unanchored=False):
    """``run_batch`` and per-stream ``run`` of a hardware processor
    equal the oracle stepping the model the processor configures."""
    traces, costs = proc.run_batch(seqs, unanchored=unanchored)
    assert len(traces) == len(costs) == len(seqs)
    model = scalar_ap.model_of(proc)
    for seq, batch_trace, cost in zip(seqs, traces, costs):
        want = scalar_ap.run(model, seq, unanchored=unanchored)
        single_trace, single_cost = proc.run(seq, unanchored=unanchored)
        _assert_traces_equal(batch_trace, want)
        _assert_traces_equal(single_trace, want)
        assert cost == single_cost == _priced(proc, len(seq))


class TestGenericModelEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(PATTERNS), streams, st.booleans())
    def test_traces_and_counts(self, scalar_ap, pattern, seqs, unanchored):
        automaton = homogenize(compile_regex(pattern, AB))
        _assert_generic_matches_oracle(
            scalar_ap, lambda: GenericAPModel.from_homogeneous(automaton),
            seqs, unanchored)

    def test_empty_batch(self):
        assert build_example_ap().run_batch([]) == []

    def test_wide_fanin_does_not_overflow(self, scalar_ap):
        """256 active predecessors all reach their targets.

        Every state is active and routes to every state, so each Follow
        lookup ORs a full entry from each of 32 byte groups into 4
        words.  Regression test: a counting kernel with a narrow (uint8)
        accumulator wrapped to zero at exactly 256 active predecessors,
        silently killing the transition that the per-symbol oracle
        takes.
        """
        n = 256
        model_args = dict(
            ste=np.ones((1, n), dtype=bool),
            routing=np.ones((n, n), dtype=bool),
            start=np.ones(n, dtype=bool),
            accept=np.eye(1, n, 0, dtype=bool)[0],
        )
        _assert_generic_matches_oracle(
            scalar_ap, lambda: GenericAPModel(Alphabet("a"), **model_args),
            ["aa", "a"])
        traces = GenericAPModel(Alphabet("a"), **model_args).run_batch(
            ["aa", "a"])
        assert all(trace.accepted for trace in traces)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.sampled_from(BOUNDARY_STATES),
        routing_p=DENSITIES, start_p=DENSITIES, accept_p=DENSITIES,
        ste_p=st.sampled_from([0.3, 0.6, 1.0]),
        seed=st.integers(0, 2**32 - 1),
        seqs=st.lists(st.text(alphabet="abc", max_size=12),
                      min_size=1, max_size=5),
        unanchored=st.booleans(),
    )
    def test_random_models_at_byte_and_word_boundaries(
            self, scalar_ap, n, routing_p, start_p, accept_p, ste_p,
            seed, seqs, unanchored):
        """Random models, from an empty to a full routing matrix, with
        start and accept states anywhere, so that the start states fall
        in several byte groups and the last group and word are partial
        or full, match the oracle on ragged streams."""
        rng = np.random.default_rng(seed)
        model_args = dict(
            ste=rng.random((ABC.size, n)) < ste_p,
            routing=rng.random((n, n)) < routing_p,
            start=rng.random(n) < start_p,
            accept=rng.random(n) < accept_p,
        )
        _assert_generic_matches_oracle(
            scalar_ap, lambda: GenericAPModel(ABC, **model_args),
            seqs, unanchored)

    def test_zero_length_stream_counts_one_accept_read(self, scalar_ap):
        _assert_generic_matches_oracle(scalar_ap, build_example_ap, [""])
        model = build_example_ap()
        model.run("")
        assert model.counts.accept_reads == 1
        assert model.counts.ste_reads == 0


class TestHardwareProcessorEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.sampled_from(PATTERNS), streams, st.booleans())
    def test_matrix_backend(self, scalar_ap, pattern, seqs, unanchored):
        automaton = homogenize(compile_regex(pattern, AB))
        _assert_processor_matches_oracle(
            scalar_ap, AutomataProcessor(automaton), seqs, unanchored)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(PATTERNS), streams)
    def test_two_level_routing_backend(self, scalar_ap, pattern, seqs):
        automaton = homogenize(compile_regex(pattern, AB))
        proc = AutomataProcessor(automaton, routing_style="two-level",
                                 block_size=4, port_budget=8)
        _assert_processor_matches_oracle(scalar_ap, proc, seqs)

    def test_crossbar_backend_same_api(self, scalar_ap):
        automaton = homogenize(compile_regex("abb", AB))
        proc = AutomataProcessor(automaton, backend="crossbar")
        _assert_processor_matches_oracle(
            scalar_ap, proc, ["abb", "ab", ""], unanchored=True)

    @pytest.mark.parametrize("seqs", [[""], ["ab"], ["", "abb"]])
    def test_unroutable_two_level_raises_before_any_symbol(self, seqs):
        """The fabric refuses an unroutable configuration up front, an
        empty stream included, on ``run`` as on ``run_batch``."""
        automaton = homogenize(compile_regex("(a|b)*abb", AB))
        proc = AutomataProcessor(automaton, routing_style="two-level",
                                 block_size=1, port_budget=1)
        assert not proc.routing.check_routable().routable
        with pytest.raises(RuntimeError, match="not routable"):
            proc.run_batch(seqs)
        with pytest.raises(RuntimeError, match="not routable"):
            proc.run(seqs[0])


#: The four AP workloads: ``networking`` at the perfbench ``ap_scan``
#: shape (8 merged IDS rules, about 200 states, |Sigma| = 42, 16
#: payloads of 256 symbols), the others at their CLI presets' shapes.
SCALE_SPECS = {
    "networking": ScenarioSpec(engine="rram_ap", workload="networking",
                               size=256, items=8, batch=16, seed=7),
    "strings": ScenarioSpec(engine="rram_ap", workload="strings",
                            size=256, items=4, batch=4, seed=7),
    "dna": ScenarioSpec(engine="rram_ap", workload="dna", size=2000,
                        items=8, batch=4, seed=7),
    "datamining": ScenarioSpec(engine="rram_ap", workload="datamining",
                               size=48, items=4, batch=16, seed=7),
}


@pytest.fixture(scope="module", params=SCALE_SPECS.values(),
                ids=SCALE_SPECS)
def workload(request):
    """A workload's merged automaton and its streams cut to ragged
    lengths: the first to 0 symbols, the second kept whole, the rest at
    random."""
    adapter = adapter_for(request.param, "rram_ap")
    streams = adapter.streams()
    rng = np.random.default_rng(11)
    cuts = [0, len(streams[1])] + [
        int(rng.integers(0, len(s) + 1)) for s in streams[2:]
    ]
    return adapter.build_automaton(), [s[:c] for s, c in zip(streams, cuts)]


class TestWorkloadScale:
    @pytest.mark.parametrize("unanchored", [False, True])
    def test_hardware_processor(self, scalar_ap, workload, unanchored):
        automaton, seqs = workload
        proc = AutomataProcessor(automaton)
        _assert_processor_matches_oracle(scalar_ap, proc, seqs, unanchored)
        if unanchored:
            traces, _ = proc.run_batch(seqs, unanchored=True)
            assert any(t.match_ends for t in traces)

    @pytest.mark.parametrize("unanchored", [False, True])
    def test_generic_model(self, scalar_ap, workload, unanchored):
        automaton, seqs = workload
        _assert_generic_matches_oracle(
            scalar_ap, lambda: GenericAPModel.from_homogeneous(automaton),
            seqs, unanchored)

    def test_no_accepting_state(self, workload):
        """An all-False Accept Vector never fires Eq. 4, on any stream."""
        automaton, seqs = workload
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
