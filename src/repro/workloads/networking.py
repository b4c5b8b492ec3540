"""Network-security workloads: signature rule sets and packet payloads.

Deep packet inspection (paper ref [22]) drives automata processors with
large regex rule sets.  This module generates Snort-flavoured synthetic
signatures -- literal content strings with classes, wildcard gaps and
bounded repeats -- plus packet payloads with planted attacks, so detection
can be scored exactly.
"""

from __future__ import annotations

import dataclasses
import string

import numpy as np

from repro.automata.nfa import NFA
from repro.automata.regex import compile_regex
from repro.automata.symbols import Alphabet

__all__ = [
    "PAYLOAD_ALPHABET",
    "SignatureRule",
    "generate_ruleset",
    "generate_payload",
    "RulesetWorkload",
    "make_ids_workload",
]

# Printable payload alphabet (letters, digits, a few separators): compact
# enough for fast tests, W = 6 wordline bits.
PAYLOAD_ALPHABET = Alphabet(string.ascii_lowercase + string.digits + "./-:_ ")


@dataclasses.dataclass(frozen=True)
class SignatureRule:
    """One synthetic IDS signature.

    Attributes:
        rule_id: stable identifier.
        pattern: the regex source.
        example: a string guaranteed to match the pattern (for planting).
    """

    rule_id: int
    pattern: str
    example: str

    def compile(self, alphabet: Alphabet = PAYLOAD_ALPHABET) -> NFA:
        return compile_regex(self.pattern, alphabet)


#: Draw pools as arrays: ``rng.choice`` draws the same indices from an
#: array as from the list it would otherwise convert on every call.
_LITERAL_SYMBOLS = np.array(list(string.ascii_lowercase + string.digits))
_DIGITS = np.array(list(string.digits))
_PAYLOAD_SYMBOLS = np.array(PAYLOAD_ALPHABET.symbols)


def _random_literal(rng: np.random.Generator, length: int) -> str:
    return "".join(rng.choice(_LITERAL_SYMBOLS, size=length).tolist())


def generate_ruleset(
    rng: np.random.Generator,
    n_rules: int,
    literal_length: tuple[int, int] = (4, 10),
) -> list[SignatureRule]:
    """Generate ``n_rules`` synthetic signatures of three shapes.

    The mix mirrors real IDS sets: plain content strings, two contents
    separated by a bounded gap, and content with a digit-run suffix.
    """
    if n_rules < 1:
        raise ValueError("need at least one rule")
    rules = []
    for rule_id in range(n_rules):
        lo, hi = literal_length
        head = _random_literal(rng, int(rng.integers(lo, hi + 1)))
        shape = rule_id % 3
        if shape == 0:
            pattern, example = head, head
        elif shape == 1:
            tail = _random_literal(rng, int(rng.integers(lo, hi + 1)))
            gap = int(rng.integers(1, 6))
            pattern = f"{head}.{{0,{gap}}}{tail}"
            example = head + "x" * rng.integers(0, gap + 1) + tail
        else:
            run = int(rng.integers(2, 5))
            pattern = f"{head}[0-9]{{{run}}}"
            example = head + "".join(rng.choice(_DIGITS, size=run).tolist())
        rules.append(SignatureRule(rule_id=rule_id, pattern=pattern,
                                   example=example))
    return rules


def generate_payload(
    rng: np.random.Generator,
    length: int,
    planted: list[tuple[SignatureRule, int]] | None = None,
) -> str:
    """Random payload with rule examples planted at given offsets."""
    body = "".join(rng.choice(_PAYLOAD_SYMBOLS, size=length).tolist())
    for rule, offset in planted or []:
        if offset < 0 or offset + len(rule.example) > length:
            raise ValueError(f"rule {rule.rule_id} does not fit at {offset}")
        body = body[:offset] + rule.example + body[offset + len(rule.example):]
    return body


@dataclasses.dataclass(frozen=True)
class RulesetWorkload:
    """A complete IDS scenario.

    Attributes:
        rules: the signature set.
        payload: the packet byte stream (as a string).
        planted: (rule, offset) pairs that were planted.
    """

    rules: tuple[SignatureRule, ...]
    payload: str
    planted: tuple[tuple[SignatureRule, int], ...]


def make_ids_workload(
    rng: np.random.Generator,
    n_rules: int = 16,
    payload_length: int = 2048,
    n_attacks: int = 4,
) -> RulesetWorkload:
    """Rule set + payload with ``n_attacks`` planted rule hits."""
    rules = generate_ruleset(rng, n_rules)
    attackers = list(rng.choice(len(rules), size=n_attacks, replace=False))
    slot = payload_length // max(n_attacks, 1)
    planted = []
    for k, rule_idx in enumerate(attackers):
        rule = rules[int(rule_idx)]
        offset = k * slot + int(rng.integers(0, max(1, slot - len(rule.example))))
        planted.append((rule, offset))
    payload = generate_payload(rng, payload_length, planted)
    return RulesetWorkload(
        rules=tuple(rules),
        payload=payload,
        planted=tuple(planted),
    )
