"""Homogeneous automata and the NFA -> homogeneous conversion (Fig. 5).

A homogeneous automaton requires every incoming transition of a state to
carry the same symbol class; input symbols then become a property of the
*state* (the STE) rather than of the edge, which is what makes the
memory-array implementation of Fig. 6/7 possible.

Any NFA converts: split each state by the distinct predecessor sets of its
incoming symbols.  Symbols ``a`` and ``b`` entering state ``q`` can share a
copy of ``q`` exactly when the same set of predecessors transitions on
both; otherwise the copy would accept spurious (predecessor, symbol)
combinations.  The conversion groups incoming symbols by their
predecessor-set signature -- correct, and minimal among signature-based
splits (a minimal biclique cover could occasionally do better but is
NP-hard).

The conversion runs on integer arrays, in one pass for a whole rule set
(:func:`homogenize_rules`).  Its input is :class:`TransitionBlocks`:
transitions between state *sets*, given as bitmasks, which is what
epsilon elimination yields (:mod:`repro.automata.regex`).  Every
(state, symbol) pair with an incoming transition gets its predecessor
bitset by one OR-reduction, one lexsort groups each state's symbols by
bitset into copies, and the merge of the rules is index offsets.  The
result, :class:`HomogeneousAutomaton`, holds the generic AP's arrays --
STE matrix, routing matrix, start and accept vectors -- and builds its
``states``, ``edges`` and labels only when they are read.
"""

from __future__ import annotations

import dataclasses
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.automata.nfa import NFA, SimulationTrace
from repro.automata.symbols import Alphabet, SymbolClass

__all__ = [
    "HomogeneousState",
    "HomogeneousAutomaton",
    "TransitionBlocks",
    "homogenize",
    "homogenize_rules",
    "merge_automata",
]


@dataclasses.dataclass(frozen=True)
class HomogeneousState:
    """One state (STE) of a homogeneous automaton.

    Attributes:
        label: report-friendly name (e.g. "S3" or "S3/b").
        symbol_class: symbols on which this state can be entered.
        is_start: active before the first symbol (the paper's q0 membership).
        is_accepting: member of the accepting set C.
    """

    label: str
    symbol_class: SymbolClass
    is_start: bool
    is_accepting: bool


def _owned(array, shape: tuple[int, ...], what: str) -> np.ndarray:
    """A read-only boolean copy of ``array``, checked against ``shape``."""
    copy = np.array(array, dtype=bool)
    if copy.shape != shape:
        raise ValueError(f"{what} must have shape {shape}, got {copy.shape}")
    copy.setflags(write=False)
    return copy


class HomogeneousAutomaton:
    """A state-labelled (homogeneous) automaton, held as the AP's arrays.

    Args:
        alphabet: symbol universe.
        ste: V, boolean (|Sigma|, N); column n is state n's symbol class.
        routing: R, boolean (N, N); ``routing[i, n]`` iff state n follows
            state i (symbols live on the destination's class).
        start: boolean (N,) start flags.
        accept: boolean (N,) accept flags.
        labels: called on the first read of :attr:`labels`; returns the N
            report names.

    The arrays are copied and kept read-only; the matrix exports return
    fresh copies the caller owns.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        ste: np.ndarray,
        routing: np.ndarray,
        start: np.ndarray,
        accept: np.ndarray,
        labels: Callable[[], Sequence[str]],
    ) -> None:
        n = np.shape(ste)[1] if np.ndim(ste) == 2 else 0
        if n == 0:
            raise ValueError("need at least one state")
        self.alphabet = alphabet
        self._ste = _owned(ste, (alphabet.size, n), "the STE matrix")
        self._routing = _owned(routing, (n, n), "the routing matrix")
        self._start = _owned(start, (n,), "the start vector")
        self._accept = _owned(accept, (n,), "the accept vector")
        if not self._start.any():
            raise ValueError("at least one start state is required")
        self._labels = labels

    # -- basic views ---------------------------------------------------------

    @property
    def n_states(self) -> int:
        return self._ste.shape[1]

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """One report name per state."""
        labels = tuple(self._labels())
        if len(labels) != self.n_states:
            raise ValueError("labels must cover every state")
        return labels

    @cached_property
    def states(self) -> tuple[HomogeneousState, ...]:
        """The STE descriptors, built from the arrays on first read."""
        return tuple(
            HomogeneousState(
                label=label,
                symbol_class=SymbolClass(
                    self.alphabet, tuple(np.flatnonzero(column).tolist())
                ),
                is_start=bool(start),
                is_accepting=bool(accept),
            )
            for label, column, start, accept in zip(
                self.labels, self._ste.T, self._start, self._accept
            )
        )

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Directed (src, dst) state-index pairs of the routing matrix."""
        src, dst = np.nonzero(self._routing)
        return frozenset(zip(src.tolist(), dst.tolist()))

    @cached_property
    def _successors(self) -> list[list[int]]:
        return [np.flatnonzero(row).tolist() for row in self._routing]

    def successors(self, state: int) -> list[int]:
        return list(self._successors[state])

    @property
    def start_indices(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._start).tolist())

    @property
    def accepting_indices(self) -> frozenset[int]:
        return frozenset(np.flatnonzero(self._accept).tolist())

    # -- matrix exports (feed the generic AP model of Fig. 6) ---------------

    def ste_matrix(self) -> np.ndarray:
        """V: (|Sigma|, N) boolean; column n is state n's STE column."""
        return self._ste.copy()

    def routing_matrix(self) -> np.ndarray:
        """R: (N, N) boolean; R[i, n] true iff state n is reachable from i."""
        return self._routing.copy()

    def start_vector(self) -> np.ndarray:
        return self._start.copy()

    def accept_vector(self) -> np.ndarray:
        """c: the paper's Accept Vector."""
        return self._accept.copy()

    # -- reference (set-based) execution ------------------------------------

    def simulate(self, sequence, unanchored: bool = False) -> SimulationTrace:
        """Set-based execution; ground truth for the matrix/hardware paths."""
        starts = self.start_indices
        accepting = self.accepting_indices
        successors = self._successors
        active = starts
        sets = [active]
        match_ends = []
        for pos, symbol in enumerate(sequence, start=1):
            enters = self._ste[self.alphabet.index_of(symbol)]
            source = active | starts if unanchored else active
            active = frozenset(
                succ for state in source for succ in successors[state]
                if enters[succ]
            )
            sets.append(active)
            if active & accepting:
                match_ends.append(pos)
        return SimulationTrace(
            active_sets=tuple(sets),
            match_ends=tuple(match_ends),
            accepted=bool(active & accepting),
        )

    def accepts(self, sequence) -> bool:
        return self.simulate(sequence).accepted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HomogeneousAutomaton({self.n_states} states, "
            f"{int(self._routing.sum())} edges)"
        )


def merge_automata(
    automata: list[HomogeneousAutomaton],
) -> tuple[HomogeneousAutomaton, list[range]]:
    """Disjoint union of homogeneous automata sharing one alphabet.

    Real automata processors run a whole rule set as one machine: every
    member automaton keeps its own states and edges, offset into a
    common index space, and all run in lock step on the shared input.
    Member ``k``'s states are labelled ``"r{k}:<label>"``.

    Args:
        automata: the machines to combine (at least one); all must use
            the same alphabet.

    Returns:
        ``(combined, ranges)`` where ``ranges[k]`` is the state-index
        range the k-th input automaton occupies in the combined machine
        (used to attribute accepts back to rules).
    """
    if not automata:
        raise ValueError("need at least one automaton")
    alphabet = automata[0].alphabet
    for machine in automata[1:]:
        if machine.alphabet != alphabet:
            raise ValueError("all automata must share one alphabet")
    bounds = np.cumsum([0] + [m.n_states for m in automata]).tolist()
    ranges = [range(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
    routing = np.zeros((bounds[-1], bounds[-1]), dtype=bool)
    for machine, rng in zip(automata, ranges):
        routing[rng.start:rng.stop, rng.start:rng.stop] = machine._routing
    members = list(automata)
    combined = HomogeneousAutomaton(
        alphabet,
        np.concatenate([m._ste for m in members], axis=1),
        routing,
        np.concatenate([m._start for m in members]),
        np.concatenate([m._accept for m in members]),
        labels=lambda: [f"r{k}:{label}" for k, machine in enumerate(members)
                        for label in machine.labels],
    )
    return combined, ranges


# ---------------------------------------------------------------------------
# The array conversion
# ---------------------------------------------------------------------------


class TransitionBlocks(NamedTuple):
    """An epsilon-free NFA as transition blocks: the conversion's input.

    Each block ``(sources, symbols, targets)`` stands for every
    transition ``p --symbols--> t`` with ``p`` in ``sources`` and ``t``
    in ``targets``.  State sets are bitmasks over ``0..n_states-1`` (bit
    ``p`` set for state ``p``).  Epsilon elimination yields one block
    per symbol edge of the Thompson automaton; :meth:`of_nfa` gives one
    block per transition of a plain :class:`NFA`.

    Attributes:
        n_states: number of states.
        start: bitmask of the start states.
        accept: bitmask of the accepting states.
        blocks: ``(sources, SymbolClass, targets)`` triples.
        labels: state names, or None for "S0", "S1", ...
    """

    n_states: int
    start: int
    accept: int
    blocks: list[tuple[int, SymbolClass, int]]
    labels: tuple[str, ...] | None = None

    @classmethod
    def of_nfa(cls, nfa: NFA) -> "TransitionBlocks":
        return cls(
            n_states=nfa.n_states,
            start=sum(1 << q for q in nfa.start_states),
            accept=sum(1 << q for q in nfa.accepting_states),
            blocks=[(1 << src, symbols, 1 << dst)
                    for src, symbols, dst in nfa.all_transitions()],
            labels=nfa.labels,
        )


def homogenize(nfa: NFA) -> HomogeneousAutomaton:
    """Convert an NFA into an equivalent homogeneous automaton.

    For every NFA state ``q``, incoming symbols are grouped by their
    predecessor sets; each group becomes one copy of ``q`` whose symbol
    class is the group's symbols.  Copies of ``q`` are ordered by their
    smallest symbol index, and states by ``q``.  Every start state then
    gets its own start-active copy with an empty class (it can never be
    re-entered; re-entry flows through the regular copies), after all
    regular copies, in state order.  A state with one copy keeps its
    NFA label; split copies append their symbols ("S3/ab"), start
    copies "(start)".

    Returns:
        The equivalent :class:`HomogeneousAutomaton`; anchored and
        unanchored behaviour both match the source NFA (see tests).
    """
    return _homogenize(nfa.alphabet, [TransitionBlocks.of_nfa(nfa)],
                       merged=False)


def homogenize_rules(
    alphabet: Alphabet, rules: Sequence[TransitionBlocks]
) -> HomogeneousAutomaton:
    """One homogeneous automaton for a whole rule set, in one pass.

    Equal -- state order, labels, classes, flags and edges -- to
    ``merge_automata([homogenize(rule) for rule in rules])[0]`` with each
    rule read as its NFA, but built with a fixed number of array
    operations per rule set.

    Args:
        alphabet: the symbol universe of every rule.
        rules: the rules' transition blocks (at least one).
    """
    if not rules:
        raise ValueError("need at least one rule")
    return _homogenize(alphabet, rules, merged=True)


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``starts[i], ..., starts[i] + counts[i] - 1`` for every i, joined."""
    ends = np.cumsum(counts)
    return (np.arange(ends[-1] if len(ends) else 0)
            + np.repeat(starts - ends + counts, counts))


def _unpack(masks: list[int], nbytes: int) -> np.ndarray:
    """Bitmasks as a (len(masks), 8 * nbytes) boolean matrix."""
    raw = b"".join(mask.to_bytes(nbytes, "little") for mask in masks)
    rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(rows, axis=1, bitorder="little").view(bool)


def _homogenize(
    alphabet: Alphabet, rules: Sequence[TransitionBlocks], merged: bool
) -> HomogeneousAutomaton:
    """The conversion over ``rules`` laid side by side.

    NFA state ``q`` of rule ``k`` is global state ``offsets[k] + q``;
    predecessor sets stay rule-local bitmasks of ``words`` uint64 each,
    so temporaries grow with the (state, symbol) pairs that have an
    incoming transition, never with states squared times symbols.
    """
    sizes = np.array([rule.n_states for rule in rules])
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    words = -(-int(sizes.max()) // 64)

    # Every block of every rule: source bitmask words, target bits,
    # symbol indices and the rule's state offset.
    sources: list[bytes] = []
    targets: list[int] = []
    symbols: list[int] = []
    first_symbol: list[int] = []
    n_symbols: list[int] = []
    block_offset: list[int] = []
    for rule, offset in zip(rules, offsets.tolist()):
        for src, cls, dst in rule.blocks:
            sources.append(src.to_bytes(8 * words, "little"))
            targets.append(dst)
            first_symbol.append(len(symbols))
            n_symbols.append(len(cls.indices))
            symbols.extend(cls.indices)
            block_offset.append(offset)
    source_words = np.frombuffer(b"".join(sources), dtype="<u8")
    source_words = source_words.reshape(len(sources), words)

    # (block, target, symbol) triples -> one predecessor bitset per
    # (target, symbol) pair: the OR of its blocks' sources.
    block, local = np.nonzero(_unpack(targets, 8 * words))
    target = local + np.array(block_offset, dtype=np.int64)[block]
    fan = np.array(n_symbols, dtype=np.int64)[block]
    symbol = np.array(symbols, dtype=np.int64)[_ranges(
        np.array(first_symbol, dtype=np.int64)[block], fan)]
    key = np.repeat(target, fan) * alphabet.size + symbol
    order = np.argsort(key)
    key = key[order]
    pair_start = np.flatnonzero(np.diff(key, prepend=-1))
    preds = np.bitwise_or.reduceat(
        source_words[np.repeat(block, fan)[order]], pair_start, axis=0)
    pair_state, pair_symbol = np.divmod(key[pair_start], alphabet.size)

    # Copies: the pairs of one state with equal predecessor bitsets.  The
    # lexsort is stable, so each group's leader (its first pair) holds
    # its smallest symbol, and the leaders in pair order are the copies
    # in (state, smallest symbol) order.
    order = np.lexsort((*preds.T, pair_state))
    grouped_state, grouped_preds = pair_state[order], preds[order]
    new_group = np.ones(len(order), dtype=bool)
    new_group[1:] = ((grouped_state[1:] != grouped_state[:-1])
                     | (grouped_preds[1:] != grouped_preds[:-1]).any(axis=1))
    leader = np.empty_like(order)
    leader[order] = order[new_group][np.cumsum(new_group) - 1]
    is_leader = np.zeros(len(order), dtype=bool)
    is_leader[leader] = True
    copy_of_pair = (np.cumsum(is_leader) - 1)[leader]
    copy_pair = np.flatnonzero(is_leader)
    copy_state = pair_state[copy_pair]

    # One start copy per start state.  Final order: each rule's regular
    # copies, then its start copies.
    flags = _unpack([r.start for r in rules] + [r.accept for r in rules],
                    8 * words)
    flags = flags.reshape(2, len(rules), -1)[
        :, np.arange(flags.shape[1]) < sizes[:, None]]
    start_state = np.flatnonzero(flags[0])
    accepting = flags[1]
    state = np.concatenate((copy_state, start_state))
    is_start = np.arange(len(state)) >= len(copy_state)
    rule = np.searchsorted(offsets, state, side="right") - 1
    final_order = np.lexsort((is_start, rule))
    position = np.empty_like(final_order)
    position[final_order] = np.arange(len(final_order))
    n = len(final_order)

    ste = np.zeros((alphabet.size, n), dtype=bool)
    ste[pair_symbol, position[copy_of_pair]] = True

    # Every copy of predecessor p feeds every copy whose bitset holds p.
    final_state = state[final_order]
    by_state = np.argsort(final_state)
    n_copies = np.bincount(final_state, minlength=int(offsets[-1]))
    first_copy = np.cumsum(n_copies) - n_copies
    bits = np.unpackbits(preds[copy_pair].view(np.uint8), axis=1,
                         bitorder="little")
    copy, pred_local = np.nonzero(bits)
    pred = pred_local + offsets[rule[copy]]
    fan = n_copies[pred]
    routing = np.zeros((n, n), dtype=bool)
    routing[by_state[_ranges(first_copy[pred], fan)],
            np.repeat(position[copy], fan)] = True

    split = np.bincount(copy_state, minlength=int(offsets[-1])) > 1
    kind = np.where(is_start, 2, split[state])[final_order]
    final_rule = rule[final_order]
    local = final_state - offsets[final_rule]

    def labels() -> list[str]:
        # kind 0: a state's only copy keeps its NFA label; 1: one of
        # several copies, "S3/ab"; 2: a start copy, "S3(start)".
        names = []
        for k, q, how, column in zip(final_rule.tolist(), local.tolist(),
                                     kind.tolist(), ste.T):
            name = rules[k].labels[q] if rules[k].labels else f"S{q}"
            if how == 1:
                name += "/" + "".join(
                    str(alphabet.symbols[i])
                    for i in np.flatnonzero(column).tolist())
            elif how == 2:
                name += "(start)"
            names.append(f"r{k}:{name}" if merged else name)
        return names

    return HomogeneousAutomaton(alphabet, ste, routing,
                                is_start[final_order],
                                accepting[final_state], labels)

