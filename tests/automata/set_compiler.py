"""The set-based automata compiler: the oracle for the array compiler.

This is the compiler the package used before it moved to integer arrays,
kept verbatim in behaviour: epsilon closures as Python sets, epsilon
elimination with reachability pruning, the NFA -> homogeneous conversion
over sets of frozensets, and the disjoint union with one relabelled state
at a time.  It shares only the parser and Thompson's construction with the
package.  The array compiler must reproduce its automata exactly: state
order, labels, symbol classes, start and accept flags, and edges.
"""

from __future__ import annotations

import dataclasses

from repro.automata.homogeneous import HomogeneousState
from repro.automata.nfa import NFA
from repro.automata.regex import _EpsilonNFA, parse
from repro.automata.symbols import Alphabet, SymbolClass


@dataclasses.dataclass(frozen=True)
class SetAutomaton:
    """A homogeneous automaton as the set-based compiler built it."""

    states: list[HomogeneousState]
    edges: set[tuple[int, int]]


def compile_regex(pattern: str, alphabet: Alphabet) -> NFA:
    """Parse, Thompson, then the set-based epsilon elimination."""
    enfa = _EpsilonNFA(alphabet)
    start, accept = enfa.compile(parse(pattern, alphabet))
    return to_nfa(enfa, start, accept)


def epsilon_closures(enfa: _EpsilonNFA) -> list[set[int]]:
    closures = [{s} for s in range(enfa.n)]
    adjacency: dict[int, list[int]] = {s: [] for s in range(enfa.n)}
    for src, dst in enfa.epsilon_edges:
        adjacency[src].append(dst)
    for state in range(enfa.n):
        stack = [state]
        while stack:
            cur = stack.pop()
            for nxt in adjacency[cur]:
                if nxt not in closures[state]:
                    closures[state].add(nxt)
                    stack.append(nxt)
    return closures


def to_nfa(enfa: _EpsilonNFA, start: int, accept: int) -> NFA:
    """Eliminate epsilon edges and prune unreachable states."""
    closures = epsilon_closures(enfa)
    accepting = [s for s in range(enfa.n) if accept in closures[s]]
    edges: dict[int, list[tuple[SymbolClass, int]]] = {
        s: [] for s in range(enfa.n)
    }
    by_src: dict[int, list[tuple[SymbolClass, int]]] = {
        s: [] for s in range(enfa.n)
    }
    for src, symbols, dst in enfa.symbol_edges:
        by_src[src].append((symbols, dst))
    for state in range(enfa.n):
        for member in closures[state]:
            edges[state].extend(by_src[member])
    reachable = set(closures[start])
    frontier = list(reachable)
    while frontier:
        state = frontier.pop()
        for _, dst in edges[state]:
            for member in closures[dst]:
                if member not in reachable:
                    reachable.add(member)
                    frontier.append(member)
    keep = sorted(reachable)
    renumber = {old: new for new, old in enumerate(keep)}
    nfa = NFA(
        alphabet=enfa.alphabet,
        n_states=len(keep),
        start_states=[renumber[s] for s in closures[start] if s in reachable],
        accepting_states=[renumber[s] for s in accepting if s in reachable],
    )
    seen: set[tuple[int, tuple[int, ...], int]] = set()
    for old in keep:
        for symbols, dst in edges[old]:
            for target in closures[dst]:
                if target not in reachable:
                    continue
                key = (renumber[old], symbols.indices, renumber[target])
                if key in seen:
                    continue
                seen.add(key)
                nfa.add_transition(renumber[old], symbols, renumber[target])
    return nfa


def homogenize(nfa: NFA) -> SetAutomaton:
    """Split each state by the predecessor sets of its incoming symbols."""
    alphabet = nfa.alphabet
    incoming: list[dict[int, set[int]]] = [{} for _ in range(nfa.n_states)]
    for src, symbols, dst in nfa.all_transitions():
        for idx in symbols.indices:
            incoming[dst].setdefault(idx, set()).add(src)

    states: list[HomogeneousState] = []
    copies_of: list[list[int]] = [[] for _ in range(nfa.n_states)]
    pred_of_copy: list[frozenset[int]] = []
    for q in range(nfa.n_states):
        groups: dict[frozenset[int], list[int]] = {}
        for idx, preds in incoming[q].items():
            groups.setdefault(frozenset(preds), []).append(idx)
        for preds, symbol_indices in sorted(
            groups.items(), key=lambda kv: sorted(kv[1])
        ):
            cls = SymbolClass(alphabet, tuple(sorted(symbol_indices)))
            label = (
                nfa.labels[q]
                if len(groups) == 1
                else f"{nfa.labels[q]}/{''.join(str(s) for s in cls.symbols)}"
            )
            copies_of[q].append(len(states))
            pred_of_copy.append(preds)
            states.append(HomogeneousState(
                label=label,
                symbol_class=cls,
                is_start=False,
                is_accepting=q in nfa.accepting_states,
            ))
    for q in sorted(nfa.start_states):
        copies_of[q].append(len(states))
        pred_of_copy.append(frozenset())
        states.append(HomogeneousState(
            label=f"{nfa.labels[q]}(start)",
            symbol_class=SymbolClass.empty(alphabet),
            is_start=True,
            is_accepting=q in nfa.accepting_states,
        ))

    edges: set[tuple[int, int]] = set()
    for q in range(nfa.n_states):
        for q_copy in copies_of[q]:
            for p in pred_of_copy[q_copy]:
                for p_copy in copies_of[p]:
                    edges.add((p_copy, q_copy))
    return SetAutomaton(states, edges)


def merge_automata(automata: list[SetAutomaton]) -> SetAutomaton:
    """Disjoint union, rule ``k``'s states relabelled ``r{k}:``."""
    states: list[HomogeneousState] = []
    edges: set[tuple[int, int]] = set()
    for k, machine in enumerate(automata):
        offset = len(states)
        for state in machine.states:
            states.append(dataclasses.replace(
                state, label=f"r{k}:{state.label}"
            ))
        for src, dst in machine.edges:
            edges.add((src + offset, dst + offset))
    return SetAutomaton(states, edges)


def compile_automaton(patterns, alphabet: Alphabet) -> SetAutomaton:
    """The merged rule-set automaton, one rule at a time."""
    return merge_automata([homogenize(compile_regex(p, alphabet))
                           for p in patterns])
