"""Automata substrate (paper Section IV-A/B).

NFAs over explicit alphabets, regex compilation (Thompson), conversion to
homogeneous automata (Fig. 5) on integer arrays -- one pass per rule set
with ``compile_automaton`` -- and the generic automata-processor model of
Fig. 6 / Equations (1)-(4).
"""

from repro.automata.dfa import DFA, determinize
from repro.automata.generic_ap import APTrace, GenericAPModel, KernelCounts
from repro.automata.homogeneous import (
    HomogeneousAutomaton,
    HomogeneousState,
    TransitionBlocks,
    homogenize,
    homogenize_rules,
    merge_automata,
)
from repro.automata.nfa import NFA, SimulationTrace
from repro.automata.regex import (
    RegexError,
    compile_automaton,
    compile_regex,
    compile_ruleset,
    parse,
)
from repro.automata.symbols import (
    BYTE_ALPHABET,
    DNA_ALPHABET,
    Alphabet,
    SymbolClass,
)

__all__ = [
    "APTrace",
    "Alphabet",
    "BYTE_ALPHABET",
    "DFA",
    "DNA_ALPHABET",
    "GenericAPModel",
    "HomogeneousAutomaton",
    "HomogeneousState",
    "KernelCounts",
    "NFA",
    "RegexError",
    "SimulationTrace",
    "SymbolClass",
    "TransitionBlocks",
    "compile_automaton",
    "compile_regex",
    "determinize",
    "compile_ruleset",
    "homogenize",
    "homogenize_rules",
    "merge_automata",
    "parse",
]
