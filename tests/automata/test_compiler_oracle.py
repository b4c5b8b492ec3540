"""The array compiler against the set-based oracle (``set_compiler.py``).

The automata the array compiler builds must equal the set-based
compiler's exactly -- state order, labels, symbol classes, start and
accept flags, and edges -- on every AP workload's rule sets and on a
hypothesis corpus of patterns; ``compile_regex`` must give the oracle's
start, accept and transition sets.
"""

import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.spec import ScenarioSpec
from repro.api.workloads import adapter_for
from repro.automata import (
    DNA_ALPHABET,
    Alphabet,
    compile_automaton,
    compile_regex,
    homogenize,
    merge_automata,
)
from repro.workloads.datamining import ITEM_ALPHABET, pattern_to_regex
from repro.workloads.dna import motif_to_regex
from repro.workloads.networking import PAYLOAD_ALPHABET

#: Letters, digits for ``\d`` and ranges, space for ``\s``, ``_`` for
#: ``\w``, and two escapable metacharacters.
CORPUS = Alphabet("abcz019 _.-")

ATOMS = st.sampled_from([
    "a", "b", "c", "z", "0", "9", "_", " ", ".",
    r"\d", r"\w", r"\s", r"\.", r"\-",
    "[ab]", "[a-c]", "[0-9]", "[^a]", "[^a-c9]", r"[a\d]", "[.-]",
    r"[\w.]", r"[^\s]",
])
QUANTIFIERS = st.sampled_from(
    ["*", "+", "?", "{0}", "{2}", "{1,}", "{2,}", "{0,2}", "{1,3}"])


def regexes(max_leaves: int = 8):
    """Patterns over ``CORPUS``: atoms, concatenation, alternation,
    groups and every quantifier form."""
    return st.recursive(
        ATOMS,
        lambda inner: st.one_of(
            st.tuples(inner, inner).map("".join),
            st.tuples(inner, inner).map("|".join),
            inner.map(lambda r: f"({r})"),
            st.tuples(inner, QUANTIFIERS).map(lambda t: f"({t[0]}){t[1]}"),
        ),
        max_leaves=max_leaves,
    )


def transition_sets(nfa):
    return (
        nfa.n_states,
        nfa.start_states,
        nfa.accepting_states,
        {(s, c.indices, d) for s, c, d in nfa.all_transitions()},
    )


def assert_same(automaton, expected):
    """``automaton`` equals the oracle's, descriptors and arrays."""
    assert list(automaton.states) == expected.states
    assert automaton.edges == expected.edges
    n = len(expected.states)
    ste = np.stack([s.symbol_class.indicator() for s in expected.states],
                   axis=1)
    routing = np.zeros((n, n), dtype=bool)
    for src, dst in expected.edges:
        routing[src, dst] = True
    np.testing.assert_array_equal(automaton.ste_matrix(), ste)
    np.testing.assert_array_equal(automaton.routing_matrix(), routing)
    np.testing.assert_array_equal(automaton.start_vector(),
                                  [s.is_start for s in expected.states])
    np.testing.assert_array_equal(automaton.accept_vector(),
                                  [s.is_accepting for s in expected.states])


class TestPatterns:
    @settings(max_examples=150, deadline=None)
    @given(regexes())
    def test_compile_regex_gives_oracle_sets(self, oracle, pattern):
        assert transition_sets(compile_regex(pattern, CORPUS)) == \
            transition_sets(oracle.compile_regex(pattern, CORPUS))

    @settings(max_examples=150, deadline=None)
    @given(regexes())
    def test_homogenize_equals_oracle(self, oracle, pattern):
        assert_same(homogenize(compile_regex(pattern, CORPUS)),
                    oracle.homogenize(oracle.compile_regex(pattern, CORPUS)))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(regexes(max_leaves=5), min_size=1, max_size=5))
    def test_rule_set_equals_oracle(self, oracle, patterns):
        expected = oracle.compile_automaton(patterns, CORPUS)
        assert_same(compile_automaton(patterns, CORPUS), expected)
        merged, _ = merge_automata(
            [homogenize(compile_regex(p, CORPUS)) for p in patterns])
        assert_same(merged, expected)

    @pytest.mark.parametrize("patterns", [
        [""],
        ["a{0}", "", "(a?)*"],
        ["a{40}b{40}"],
        ["(ab|c){25}", "z", "[0-9]{3,70}"],
        ["(a|b)*abb", ".*a.*b.*"],
    ])
    def test_empty_and_multiword_rules(self, oracle, patterns):
        """Rules without transitions, and rules over 64 states (more
        than one predecessor word)."""
        assert_same(compile_automaton(patterns, CORPUS),
                    oracle.compile_automaton(patterns, CORPUS))
        for pattern in patterns:
            assert transition_sets(compile_regex(pattern, CORPUS)) == \
                transition_sets(oracle.compile_regex(pattern, CORPUS))

    def test_nfa_labels_carry_through(self, oracle):
        """Hand-built NFAs keep their own labels, split and start copies
        included."""
        from repro.automata import NFA

        nfa = NFA(Alphabet("ab"), 3, [0, 1], [2], labels=["p", "q", "r"])
        nfa.add_transition(0, "a", 2)
        nfa.add_transition(1, "b", 2)
        nfa.add_transition(2, "ab", 2)
        assert_same(homogenize(nfa), oracle.homogenize(nfa))
        assert [s.label for s in homogenize(nfa).states] == \
            ["r/a", "r/b", "p(start)", "q(start)"]


def _spec(workload, items, seed, **params):
    return ScenarioSpec(engine="rram_ap", workload=workload, size=64,
                        items=items, batch=1, seed=seed, params=params)


class TestWorkloads:
    """Every AP workload's automaton equals the oracle's build of the
    same rules."""

    @pytest.mark.parametrize("items", [1, 2, 3, 8, 16])
    def test_networking(self, oracle, items):
        for seed in range(30):
            adapter = adapter_for(_spec("networking", items, seed), "rram_ap")
            patterns = [rule.pattern for rule in adapter._rules]
            assert_same(adapter.build_automaton(),
                        oracle.compile_automaton(patterns, PAYLOAD_ALPHABET))

    @pytest.mark.parametrize("items", [1, 4, 8, 16])
    def test_strings(self, oracle, items):
        for seed in range(20):
            adapter = adapter_for(_spec("strings", items, seed), "rram_ap")
            assert_same(adapter.build_automaton(), oracle.compile_automaton(
                adapter._patterns, Alphabet(string.ascii_lowercase)))

    @pytest.mark.parametrize("items", [1, 4, 8, 16])
    def test_datamining(self, oracle, items):
        for seed in range(20):
            adapter = adapter_for(_spec("datamining", items, seed),
                                  "rram_ap")
            patterns = [pattern_to_regex(p) for p in adapter._patterns]
            assert_same(adapter.build_automaton(),
                        oracle.compile_automaton(patterns, ITEM_ALPHABET))

    @pytest.mark.parametrize("motif", [
        "TATAWR", "A", "NNNN", "RYKMSWBDHVN", "GCNNGC", "TTGACANNNNNTATAAT",
    ])
    def test_dna(self, oracle, motif):
        adapter = adapter_for(_spec("dna", 1, 0, motif=motif), "rram_ap")
        assert_same(adapter.build_automaton(), oracle.homogenize(
            oracle.compile_regex(motif_to_regex(motif), DNA_ALPHABET)))
