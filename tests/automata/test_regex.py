"""Tests for regex parsing and compilation, cross-checked against re."""

import re
import string

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata import DNA_ALPHABET, Alphabet, RegexError, compile_regex

ASCII = Alphabet(string.ascii_lowercase + string.digits + " .")
AB = Alphabet("ab")


def agree_with_re(pattern: str, text: str, alphabet=ASCII) -> None:
    """Our anchored acceptance must equal re.fullmatch."""
    ours = compile_regex(pattern, alphabet).accepts(text)
    theirs = re.fullmatch(pattern, text) is not None
    assert ours == theirs, (pattern, text, ours, theirs)


class TestBasics:
    @pytest.mark.parametrize("pattern,text,expected", [
        ("abc", "abc", True),
        ("abc", "abd", False),
        ("abc", "ab", False),
        ("a|b", "a", True),
        ("a|b", "b", True),
        ("a|b", "c", False),
        ("ab|cd", "cd", True),
        ("a*", "", True),
        ("a*", "aaaa", True),
        ("a+", "", False),
        ("a+", "aaa", True),
        ("a?b", "b", True),
        ("a?b", "ab", True),
        ("a?b", "aab", False),
        ("(ab)+", "ababab", True),
        ("(ab)+", "aba", False),
        ("(a|b)*c", "ababc", True),
        (".", "x", True),
        (".", "xy", False),
        ("a.c", "abc", True),
    ])
    def test_acceptance(self, pattern, text, expected):
        assert compile_regex(pattern, ASCII).accepts(text) is expected


class TestCharacterClasses:
    def test_simple_class(self):
        nfa = compile_regex("[abc]", ASCII)
        for ch in "abc":
            assert nfa.accepts(ch)
        assert not nfa.accepts("d")

    def test_range(self):
        nfa = compile_regex("[a-d]", ASCII)
        for ch in "abcd":
            assert nfa.accepts(ch)
        assert not nfa.accepts("e")

    def test_negated_class(self):
        nfa = compile_regex("[^abc]", ASCII)
        assert not nfa.accepts("a")
        assert nfa.accepts("z")

    def test_digit_escape(self):
        nfa = compile_regex(r"\d\d", ASCII)
        assert nfa.accepts("42")
        assert not nfa.accepts("4a")

    def test_escaped_metacharacters(self):
        assert compile_regex(r"\.", ASCII).accepts(".")
        assert not compile_regex(r"\.", ASCII).accepts("a")

    def test_class_with_range_and_singles(self):
        nfa = compile_regex("[a-c59]", ASCII)
        for ch in "abc59":
            assert nfa.accepts(ch)
        assert not nfa.accepts("7")


class TestBoundedRepeats:
    @pytest.mark.parametrize("pattern,good,bad", [
        ("a{3}", ["aaa"], ["aa", "aaaa"]),
        ("a{2,}", ["aa", "aaaaa"], ["a"]),
        ("a{1,3}", ["a", "aa", "aaa"], ["", "aaaa"]),
        ("(ab){2,3}", ["abab", "ababab"], ["ab", "abababab"]),
    ])
    def test_repeats(self, pattern, good, bad):
        nfa = compile_regex(pattern, ASCII)
        for text in good:
            assert nfa.accepts(text), (pattern, text)
        for text in bad:
            assert not nfa.accepts(text), (pattern, text)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(RegexError):
            compile_regex("a{3,2}", ASCII)


class TestErrors:
    @pytest.mark.parametrize("pattern", [
        "(ab", "ab)", "[abc", "a{", "a{,}", "*a", "a**b|*",
        "[z-a]", r"\q",
        # Repeat counts are ASCII digits only: a superscript two is not
        # a digit to int(), and an Arabic-Indic three is not a count.
        "a{\u00b2}", "a{\u0663}", "a{1,\u0663}",
    ])
    def test_malformed_patterns(self, pattern):
        with pytest.raises(RegexError):
            compile_regex(pattern, ASCII)

    def test_symbol_outside_alphabet(self):
        with pytest.raises(RegexError):
            compile_regex("xyz", AB)

    def test_class_empty_on_alphabet(self):
        with pytest.raises(RegexError):
            compile_regex(r"\d", AB)

    @pytest.mark.parametrize("pattern", [r"[\d]", r"[\s\d]", r"[\.]"])
    def test_class_of_escapes_empty_on_alphabet(self, pattern):
        with pytest.raises(RegexError):
            compile_regex(pattern, DNA_ALPHABET)


class TestClassEscapes:
    """An escape inside a class adds what it matches on the alphabet;
    only the whole class must be non-empty."""

    @pytest.mark.parametrize("pattern,same_as", [
        (r"[A\d]", "A"),
        (r"[\dA]", "A"),
        (r"[\s\wC]", "[ACGT]"),
        (r"[A\.G]", "[AG]"),
        (r"[^\dA]", "[CGT]"),
    ])
    def test_class_compiles_like_its_members(self, pattern, same_as):
        assert _transitions(compile_regex(pattern, DNA_ALPHABET)) == \
            _transitions(compile_regex(same_as, DNA_ALPHABET))


def _transitions(nfa):
    return (nfa.n_states, nfa.start_states, nfa.accepting_states,
            {(s, c.indices, d) for s, c, d in nfa.all_transitions()})


class TestRulesetCompilation:
    def test_compile_ruleset(self):
        from repro.automata import compile_ruleset

        nfas = compile_ruleset(["ab", "a+b", "[ab]{2}"], ASCII)
        assert len(nfas) == 3
        assert nfas[0].accepts("ab")
        assert nfas[1].accepts("aaab")
        assert nfas[2].accepts("ba")


class TestAgainstPythonRe:
    @pytest.mark.parametrize("pattern", [
        "a(b|c)*d", "(ab|ba)+", "a.b.c", "x?y?z?", "(a|b)(a|b)(a|b)",
        "a{2,4}b{1,2}", "[ab]*ba", "(a+b)+",
    ])
    def test_fixed_patterns_on_small_words(self, pattern):
        for n in range(5):
            for word in _words("abcdxyz"[:4], n):
                agree_with_re(pattern, word)

    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="ab", max_size=8))
    def test_random_words_property(self, text):
        for pattern in ["(a|b)*abb", "a*b*a*", "(ab)*a?"]:
            agree_with_re(pattern, text, AB)


def _words(alphabet, n):
    if n == 0:
        yield ""
        return
    for w in _words(alphabet, n - 1):
        for ch in alphabet:
            yield w + ch
