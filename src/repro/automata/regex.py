"""Regular-expression compilation to NFAs (Thompson construction).

Automata-processor workloads are written as regex rule sets (network
intrusion signatures, DNA motifs, mining patterns -- paper refs [22-24]).
This module parses a practical regex subset and compiles it into the plain
(epsilon-free) :class:`~repro.automata.nfa.NFA` the homogeneous conversion
consumes:

* literals, ``.``, escapes ``\\d \\w \\s`` and escaped metacharacters;
* character classes ``[abc]``, ranges ``[a-z]``, negation ``[^...]``;
* grouping ``( )``, alternation ``|``;
* quantifiers ``* + ?`` and bounded repeats ``{m} {m,} {m,n}``.

The pipeline is: parse to an AST, compile to an epsilon-NFA via Thompson's
rules, then eliminate epsilon transitions.  Epsilon closures are Python-int
bitmasks, one per state and direction, so the epsilon-free result comes out
as :class:`~repro.automata.homogeneous.TransitionBlocks`: one block per
symbol edge ``r --C--> q``, from every state whose closure holds ``r`` to
every state in the closure of ``q``.  Thompson fragments are connected from
their start state, so every state is reachable and none is pruned.
:func:`compile_regex` unpacks the blocks into an :class:`NFA`;
:func:`compile_automaton` hands a whole rule set's blocks to the array
conversion (:func:`~repro.automata.homogeneous.homogenize_rules`) without
building NFA objects.
"""

from __future__ import annotations

import dataclasses
import string
from typing import Sequence

from repro.automata.homogeneous import (
    HomogeneousAutomaton,
    TransitionBlocks,
    homogenize_rules,
)
from repro.automata.nfa import NFA
from repro.automata.symbols import Alphabet, SymbolClass

__all__ = [
    "RegexError",
    "parse",
    "compile_regex",
    "compile_ruleset",
    "compile_automaton",
]


class RegexError(ValueError):
    """Raised for malformed patterns or classes empty on the alphabet."""


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Literal:
    """A single-symbol-class atom."""

    symbols: SymbolClass


@dataclasses.dataclass(frozen=True)
class Concat:
    parts: tuple


@dataclasses.dataclass(frozen=True)
class Alternation:
    options: tuple


@dataclasses.dataclass(frozen=True)
class Repeat:
    """``node`` repeated between ``minimum`` and ``maximum`` times.

    ``maximum`` of None means unbounded.
    """

    node: object
    minimum: int
    maximum: int | None


_ESCAPE_CLASSES = {
    "d": string.digits,
    "w": string.ascii_letters + string.digits + "_",
    "s": " \t\r\n\f\v",
}
_METACHARACTERS = set("().|*+?[]{}\\^$")


class _Parser:
    """Recursive-descent parser for the supported regex subset."""

    def __init__(self, pattern: str, alphabet: Alphabet) -> None:
        self.pattern = pattern
        self.alphabet = alphabet
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self) -> str | None:
        if self.pos < len(self.pattern):
            return self.pattern[self.pos]
        return None

    def _take(self) -> str:
        ch = self._peek()
        if ch is None:
            raise RegexError(f"unexpected end of pattern {self.pattern!r}")
        self.pos += 1
        return ch

    def _expect(self, ch: str) -> None:
        if self._take() != ch:
            raise RegexError(
                f"expected {ch!r} at position {self.pos - 1} in "
                f"{self.pattern!r}"
            )

    # -- grammar -------------------------------------------------------------

    def parse(self):
        node = self._alternation()
        if self._peek() is not None:
            raise RegexError(
                f"trailing characters at position {self.pos} in "
                f"{self.pattern!r}"
            )
        return node

    def _alternation(self):
        options = [self._concat()]
        while self._peek() == "|":
            self._take()
            options.append(self._concat())
        if len(options) == 1:
            return options[0]
        return Alternation(tuple(options))

    def _concat(self):
        parts = []
        while (ch := self._peek()) is not None and ch not in "|)":
            parts.append(self._repeat())
        if len(parts) == 1:
            return parts[0]
        return Concat(tuple(parts))

    def _repeat(self):
        node = self._atom()
        while True:
            ch = self._peek()
            if ch == "*":
                self._take()
                node = Repeat(node, 0, None)
            elif ch == "+":
                self._take()
                node = Repeat(node, 1, None)
            elif ch == "?":
                self._take()
                node = Repeat(node, 0, 1)
            elif ch == "{":
                node = self._bounded_repeat(node)
            else:
                return node

    def _bounded_repeat(self, node):
        self._expect("{")
        minimum = self._number()
        maximum: int | None = minimum
        if self._peek() == ",":
            self._take()
            if self._peek() == "}":
                maximum = None
            else:
                maximum = self._number()
        self._expect("}")
        if maximum is not None and maximum < minimum:
            raise RegexError(f"bad repeat bounds in {self.pattern!r}")
        return Repeat(node, minimum, maximum)

    def _number(self) -> int:
        digits = ""
        while (ch := self._peek()) is not None and ch in string.digits:
            digits += self._take()
        if not digits:
            raise RegexError(f"expected a number in {self.pattern!r}")
        return int(digits)

    def _atom(self):
        ch = self._peek()
        if ch == "(":
            self._take()
            node = self._alternation()
            self._expect(")")
            return node
        if ch == "[":
            return Literal(self._char_class())
        if ch == ".":
            self._take()
            return Literal(SymbolClass.full(self.alphabet))
        if ch == "\\":
            self._take()
            ch = self._take()
            return Literal(self._non_empty(
                SymbolClass.of(self.alphabet, self._escape(ch)), f"\\{ch}"))
        if ch in "*+?{":
            raise RegexError(
                f"quantifier with nothing to repeat at {self.pos} in "
                f"{self.pattern!r}"
            )
        return Literal(self._single(self._take()))

    # -- character classes ---------------------------------------------------

    def _escape(self, ch: str) -> list[str]:
        """The alphabet symbols escape ``\\ch`` stands for (maybe none)."""
        if ch in _ESCAPE_CLASSES:
            return [c for c in _ESCAPE_CLASSES[ch] if c in self.alphabet]
        if ch in _METACHARACTERS or ch in ("-",):
            return [ch] if ch in self.alphabet else []
        raise RegexError(f"unsupported escape \\{ch} in {self.pattern!r}")

    def _single(self, ch: str) -> SymbolClass:
        try:
            index = self.alphabet.index_of(ch)
        except KeyError:
            raise RegexError(
                f"symbol {ch!r} is not in the target alphabet"
            ) from None
        return self.alphabet.singletons[index]

    def _char_class(self) -> SymbolClass:
        self._expect("[")
        negated = self._peek() == "^"
        if negated:
            self._take()
        members: set = set()
        first = True
        while True:
            ch = self._peek()
            if ch is None:
                raise RegexError(f"unterminated class in {self.pattern!r}")
            if ch == "]" and not first:
                self._take()
                break
            first = False
            ch = self._take()
            if ch == "\\":
                members.update(self._escape(self._take()))
                continue
            if self._peek() == "-" and self.pos + 1 < len(self.pattern) \
                    and self.pattern[self.pos + 1] != "]":
                self._take()  # the dash
                hi = self._take()
                if hi == "\\":
                    hi = self._take()
                if ord(hi) < ord(ch):
                    raise RegexError(
                        f"inverted range {ch}-{hi} in {self.pattern!r}"
                    )
                for code in range(ord(ch), ord(hi) + 1):
                    if chr(code) in self.alphabet:
                        members.add(chr(code))
            else:
                if ch in self.alphabet:
                    members.add(ch)
        cls = SymbolClass.of(self.alphabet, members)
        if negated:
            cls = cls.complement()
        return self._non_empty(cls, "character class")

    def _non_empty(self, cls: SymbolClass, what: str) -> SymbolClass:
        if not cls:
            raise RegexError(
                f"{what} matches nothing on this alphabet "
                f"({self.pattern!r})"
            )
        return cls


def parse(pattern: str, alphabet: Alphabet):
    """Parse ``pattern`` into the regex AST (exposed for testing)."""
    return _Parser(pattern, alphabet).parse()


# ---------------------------------------------------------------------------
# Thompson construction on an epsilon-NFA, then epsilon elimination
# ---------------------------------------------------------------------------


class _EpsilonNFA:
    """Mutable epsilon-NFA under construction."""

    def __init__(self, alphabet: Alphabet) -> None:
        self.alphabet = alphabet
        self.n = 0
        self.symbol_edges: list[tuple[int, SymbolClass, int]] = []
        self.epsilon_edges: list[tuple[int, int]] = []

    def new_state(self) -> int:
        self.n += 1
        return self.n - 1

    def add(self, src: int, symbols: SymbolClass | None, dst: int) -> None:
        if symbols is None:
            self.epsilon_edges.append((src, dst))
        else:
            self.symbol_edges.append((src, symbols, dst))

    # -- Thompson fragments ------------------------------------------------

    def compile(self, node) -> tuple[int, int]:
        """Compile an AST node into a (start, accept) fragment."""
        if isinstance(node, Literal):
            start, end = self.new_state(), self.new_state()
            self.add(start, node.symbols, end)
            return start, end
        if isinstance(node, Concat):
            if not node.parts:
                start, end = self.new_state(), self.new_state()
                self.add(start, None, end)
                return start, end
            start, end = self.compile(node.parts[0])
            for part in node.parts[1:]:
                nxt_start, nxt_end = self.compile(part)
                self.add(end, None, nxt_start)
                end = nxt_end
            return start, end
        if isinstance(node, Alternation):
            start, end = self.new_state(), self.new_state()
            for option in node.options:
                o_start, o_end = self.compile(option)
                self.add(start, None, o_start)
                self.add(o_end, None, end)
            return start, end
        if isinstance(node, Repeat):
            return self._compile_repeat(node)
        raise TypeError(f"unknown AST node {node!r}")

    def _compile_repeat(self, node: Repeat) -> tuple[int, int]:
        start = self.new_state()
        end = start
        # The mandatory copies.
        for _ in range(node.minimum):
            c_start, c_end = self.compile(node.node)
            self.add(end, None, c_start)
            end = c_end
        if node.maximum is None:
            # Kleene tail: one more copy, loopable and skippable.
            c_start, c_end = self.compile(node.node)
            self.add(end, None, c_start)
            self.add(c_end, None, c_start)
            exit_state = self.new_state()
            self.add(end, None, exit_state)
            self.add(c_end, None, exit_state)
            return start, exit_state
        # Bounded optional copies.
        exit_state = self.new_state()
        self.add(end, None, exit_state)
        for _ in range(node.maximum - node.minimum):
            c_start, c_end = self.compile(node.node)
            self.add(end, None, c_start)
            self.add(c_end, None, exit_state)
            end = c_end
        return start, exit_state

    # -- epsilon elimination ---------------------------------------------------

    def eliminate(self, start: int, accept: int) -> TransitionBlocks:
        """The epsilon-free automaton of the fragment ``(start, accept)``.

        State ``p`` steps on symbol edge ``r --C--> q`` when its closure
        holds ``r``, and lands on every state of ``q``'s closure.
        """
        # Thompson edges mostly point to newer states: close the forward
        # graph newest edge first and the backward graph oldest first.
        closure = _closures(self.epsilon_edges[::-1], self.n)
        reaches = _closures([(dst, src) for src, dst in self.epsilon_edges],
                            self.n)
        return TransitionBlocks(
            n_states=self.n,
            start=closure[start],
            accept=reaches[accept],
            blocks=[(reaches[src], symbols, closure[dst])
                    for src, symbols, dst in self.symbol_edges],
        )


def _closures(edges: list[tuple[int, int]], n: int) -> list[int]:
    """Reflexive-transitive closures of ``n`` states over ``edges``, as
    bitmasks: sweeps the edges until a sweep changes nothing."""
    closure = [1 << s for s in range(n)]
    changed = True
    while changed:
        changed = False
        for src, dst in edges:
            mask = closure[src] | closure[dst]
            if mask != closure[src]:
                closure[src] = mask
                changed = True
    return closure


def _states(mask: int) -> list[int]:
    """The states of a bitmask, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _blocks(pattern: str, alphabet: Alphabet) -> TransitionBlocks:
    enfa = _EpsilonNFA(alphabet)
    start, accept = enfa.compile(parse(pattern, alphabet))
    return enfa.eliminate(start, accept)


def compile_regex(pattern: str, alphabet: Alphabet) -> NFA:
    """Compile ``pattern`` into an epsilon-free NFA over ``alphabet``.

    Args:
        pattern: the regex source.
        alphabet: target symbol universe (e.g. ``DNA_ALPHABET`` or an ASCII
            alphabet).

    Returns:
        An :class:`NFA` accepting exactly the pattern's language (anchored
        at both ends; use ``unanchored=True`` at simulation time for
        substring search).

    Raises:
        RegexError: on malformed patterns.
    """
    rule = _blocks(pattern, alphabet)
    nfa = NFA(alphabet, rule.n_states, _states(rule.start),
              _states(rule.accept))
    seen: set[tuple[int, tuple[int, ...], int]] = set()
    for sources, symbols, targets in rule.blocks:
        for src in _states(sources):
            for dst in _states(targets):
                key = (src, symbols.indices, dst)
                if key not in seen:
                    seen.add(key)
                    nfa.add_transition(src, symbols, dst)
    return nfa


def compile_ruleset(patterns: Sequence[str], alphabet: Alphabet) -> list[NFA]:
    """Compile a list of patterns (a signature rule set) to NFAs."""
    return [compile_regex(p, alphabet) for p in patterns]


def compile_automaton(
    patterns: Sequence[str], alphabet: Alphabet
) -> HomogeneousAutomaton:
    """Compile a rule set into one merged homogeneous automaton.

    Equal -- state order, labels, symbol classes, flags and edges -- to
    ``merge_automata([homogenize(compile_regex(p, alphabet)) for p in
    patterns])[0]``, but built from the rules' transition blocks in one
    array pass, with no NFA objects in between.

    Raises:
        RegexError: on malformed patterns.
        ValueError: for an empty rule set.
    """
    return homogenize_rules(alphabet,
                            [_blocks(p, alphabet) for p in patterns])
