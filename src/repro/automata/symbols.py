"""Alphabets and symbol classes for automata processing.

Automata processors decode a W-bit input symbol into one of 2^W word lines
(paper Fig. 6).  An :class:`Alphabet` fixes the symbol universe and its
W-bit encoding; a :class:`SymbolClass` is a subset of that universe --
the "symbol class" attached to each homogeneous-automaton state (STE).

Symbol classes are immutable and hashable so they can key dictionaries
during NFA construction, and they export indicator vectors for the matrix
formulation of the generic AP model.
"""

from __future__ import annotations

import dataclasses
import math
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

__all__ = ["Alphabet", "SymbolClass", "BYTE_ALPHABET", "DNA_ALPHABET"]


class Alphabet:
    """An ordered symbol universe with a W-bit encoding.

    Args:
        symbols: the distinct symbols, in wire order (index = word line).
    """

    def __init__(self, symbols: Iterable) -> None:
        self._symbols = tuple(symbols)
        if not self._symbols:
            raise ValueError("alphabet must not be empty")
        if len(set(self._symbols)) != len(self._symbols):
            raise ValueError("alphabet symbols must be distinct")
        self._index = {s: i for i, s in enumerate(self._symbols)}

    @property
    def symbols(self) -> tuple:
        return self._symbols

    @property
    def size(self) -> int:
        return len(self._symbols)

    @property
    def wordline_bits(self) -> int:
        """W: input symbol width in bits (Fig. 6's W-bit input)."""
        return max(1, math.ceil(math.log2(self.size)))

    @property
    def wordline_count(self) -> int:
        """Number of decoder word lines, 2^W."""
        return 2 ** self.wordline_bits

    @cached_property
    def singletons(self) -> tuple["SymbolClass", ...]:
        """The single-symbol classes, one shared instance per word line."""
        return tuple(SymbolClass(self, (i,)) for i in range(self.size))

    def index_of(self, symbol) -> int:
        """Word-line index of ``symbol``; raises KeyError if unknown."""
        try:
            return self._index[symbol]
        except KeyError:
            raise KeyError(f"symbol {symbol!r} is not in the alphabet")

    def indices_of(self, symbols: Iterable) -> list[int]:
        """Word-line indices of ``symbols``, one dict lookup each.

        Raises:
            KeyError: naming the first symbol not in the alphabet.
        """
        index = self._index
        try:
            return [index[symbol] for symbol in symbols]
        except KeyError as exc:
            raise KeyError(
                f"symbol {exc.args[0]!r} is not in the alphabet"
            ) from None

    def __contains__(self, symbol) -> bool:
        return symbol in self._index

    def __iter__(self) -> Iterator:
        return iter(self._symbols)

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self._symbols == other._symbols

    def __hash__(self) -> int:
        return hash(self._symbols)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        preview = "".join(str(s) for s in self._symbols[:8])
        return f"Alphabet({self.size} symbols: {preview}...)"


@dataclasses.dataclass(frozen=True)
class SymbolClass:
    """An immutable subset of an alphabet (a state's symbol class).

    Attributes:
        alphabet: the universe.
        indices: sorted tuple of member word-line indices.
    """

    alphabet: Alphabet
    indices: tuple[int, ...]

    @classmethod
    def of(cls, alphabet: Alphabet, symbols: Iterable) -> "SymbolClass":
        """Build from explicit member symbols."""
        idx = sorted(set(alphabet.indices_of(symbols)))
        return cls(alphabet=alphabet, indices=tuple(idx))

    @classmethod
    def empty(cls, alphabet: Alphabet) -> "SymbolClass":
        return cls(alphabet=alphabet, indices=())

    @classmethod
    def full(cls, alphabet: Alphabet) -> "SymbolClass":
        return cls(alphabet=alphabet, indices=tuple(range(alphabet.size)))

    def __post_init__(self) -> None:
        indices = self.indices
        if list(indices) != sorted(set(indices)):
            raise ValueError("indices must be sorted and unique")
        # Sorted, so the ends bound every index.
        for i in (indices[0], indices[-1]) if indices else ():
            if not 0 <= i < self.alphabet.size:
                raise ValueError(f"index {i} outside the alphabet")

    # -- set operations -----------------------------------------------------

    def contains(self, symbol) -> bool:
        return self.alphabet.index_of(symbol) in set(self.indices)

    def union(self, other: "SymbolClass") -> "SymbolClass":
        self._check_same_alphabet(other)
        merged = sorted(set(self.indices) | set(other.indices))
        return SymbolClass(self.alphabet, tuple(merged))

    def intersection(self, other: "SymbolClass") -> "SymbolClass":
        self._check_same_alphabet(other)
        common = sorted(set(self.indices) & set(other.indices))
        return SymbolClass(self.alphabet, tuple(common))

    def complement(self) -> "SymbolClass":
        rest = sorted(set(range(self.alphabet.size)) - set(self.indices))
        return SymbolClass(self.alphabet, tuple(rest))

    def _check_same_alphabet(self, other: "SymbolClass") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError("symbol classes live on different alphabets")

    # -- views ---------------------------------------------------------------

    @property
    def symbols(self) -> tuple:
        return tuple(self.alphabet.symbols[i] for i in self.indices)

    def indicator(self) -> np.ndarray:
        """Boolean indicator vector over the alphabet (one STE column)."""
        vec = np.zeros(self.alphabet.size, dtype=bool)
        vec[list(self.indices)] = True
        return vec

    def __len__(self) -> int:
        return len(self.indices)

    def __bool__(self) -> bool:
        return bool(self.indices)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SymbolClass({''.join(str(s) for s in self.symbols)})"


BYTE_ALPHABET = Alphabet(bytes([b]) for b in range(256))
"""The 256-symbol byte alphabet (W = 8) used by real automata processors."""

DNA_ALPHABET = Alphabet("ACGT")
"""The 4-symbol nucleotide alphabet (W = 2)."""
