"""The generic automata-processor model of Fig. 6 and Equations (1)-(4).

The paper reduces every hardware automata processor to three steps over
bit vectors:

1. *Input symbol processing* (Eq. 1): the one-hot input vector ``i``
   selects a row of the STE matrix ``V``; the Symbol Vector is
   ``s[n] = i . V_n`` (OR-AND dot product).
2. *Active state processing* (Eqs. 2, 3): the Follow Vector is
   ``f[n] = a . R_n`` over the routing matrix ``R``, and the next Active
   Vector is ``a = f & s``.
3. *Output identification* (Eq. 4): ``A = a . c`` against the Accept
   Vector.

This module implements that model exactly and counts the kernel
invocations (vector dot products and bitwise ANDs) that the hardware cost
models price.  Every run steps through one kernel on bit-packed Active
Vectors, :func:`batched_matrix_steps`: a single input is a batch of one,
and batched multi-stream execution is the throughput mode hardware APs
are built for.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.automata.homogeneous import HomogeneousAutomaton
from repro.automata.symbols import Alphabet

__all__ = [
    "APTrace",
    "KernelCounts",
    "GenericAPModel",
    "encode_streams",
    "batched_matrix_steps",
    "assemble_traces",
]


def encode_streams(
    alphabet, sequences
) -> tuple[np.ndarray, np.ndarray]:
    """Pack symbol streams into a padded index matrix for batch stepping.

    Args:
        alphabet: the symbol universe (provides ``indices_of``).
        sequences: iterables of alphabet symbols; lengths may differ.

    Returns:
        ``(indices, lengths)``: an (M, T_max) int array of symbol indices
        (zero-padded past each stream's end) and the (M,) true lengths.

    Raises:
        KeyError: naming the first symbol not in the alphabet.
    """
    rows = [alphabet.indices_of(s) for s in sequences]
    lengths = np.array([len(row) for row in rows], dtype=np.int64)
    t_max = int(lengths.max()) if len(rows) else 0
    indices = np.zeros((len(rows), t_max), dtype=np.int64)
    for k, row in enumerate(rows):
        indices[k, : len(row)] = row
    return indices, lengths


def _pack(rows: np.ndarray, words: int) -> np.ndarray:
    """Boolean ``(..., N)`` rows as ``(..., words)`` little-endian uint64
    words, state k in bit k % 8 of byte k // 8 on any host, zero past N."""
    padded = np.zeros(rows.shape[:-1] + (words * 64,), dtype=bool)
    padded[..., : rows.shape[-1]] = rows
    return np.packbits(padded, axis=-1, bitorder="little").view("<u8")


def batched_matrix_steps(
    start: np.ndarray,
    routing: np.ndarray,
    ste: np.ndarray,
    accept: np.ndarray,
    indices: np.ndarray,
    lengths: np.ndarray,
    unanchored: bool = False,
    counts: "KernelCounts | None" = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run Eqs. (1)-(4) over M streams in lock step, vectorized.

    The one stepping kernel behind :meth:`GenericAPModel.run_batch` and
    the hardware model's matrix backend (``run`` of either is a batch of
    one).  It steps bit-packed Active Vectors: each stream's (N,) row is
    ``ceil(N/64)`` little-endian uint64 words, so byte j of a row holds
    states 8j..8j+7.  Eq. 2 is a lookup by byte (the "four Russians"
    method) in a per-call table of about 4 N**2 bytes: for each of the
    ``ceil(N/8)`` groups of 8 states and each of its 256 activation
    patterns, the OR of those states' routing rows.  A step is one index
    add (each group's byte plus the group's offset), one ``take`` of a
    Follow row per group and stream, one OR-reduce over the groups and
    one AND with the step's packed STE rows (Eqs. 1 and 3), gathered
    before the loop.  OR and AND of bits are exact, whatever N.  Eq. 2
    is OR-linear, f(a | s) = f(a) | f(s), and every lookup reads one
    group-0 entry, so an unanchored run ORs Follow(start) into each
    group-0 entry once instead of re-arming the start states before
    every symbol.  The history is unpacked once after the loop, and
    Eq. 4 is scored on those bools, over the accept columns only.
    Each row of the lookup and of the STE gather depends only on its
    own stream, so per-stream results are identical to stepping each
    stream alone -- equivalently, a stream's trace is invariant to which
    other streams share the batch.  That co-scheduling invariance is
    what lets the sharded executor (:mod:`repro.parallel`) split a
    multi-stream run across worker processes and still merge traces
    bit-identically to the single-process run.  Rows past a stream's
    length are padding that callers cut off (:func:`assemble_traces`).

    Args:
        start: (N,) initial Active Vector.
        routing: (N, N) boolean routing matrix R.
        ste: (|Sigma|, N) boolean STE matrix V.
        accept: (N,) boolean Accept Vector c.
        indices: (M, T_max) padded symbol-index matrix.
        lengths: (M,) true stream lengths.
        unanchored: re-arm start states before every symbol.
        counts: optional kernel counters; each grows by the total number
            of symbols, ``lengths.sum()``, one read of each kind per
            symbol.

    Returns:
        ``(actives, accepts)``: (M, T_max + 1, N) Active Vector history
        (a view of the unpacked time-major history) and (M, T_max)
        per-step Eq. 4 outputs.
    """
    m, t_max = indices.shape
    n = start.shape[0]
    groups, words = -(-n // 8), -(-n // 64)
    rows = np.zeros((groups * 8, words), dtype="<u8")
    rows[:n] = _pack(routing, words)
    # table[g, p]: the OR of the routing rows of group g's states set in
    # p.  Built pattern-major by doubling p's range, so that each OR
    # spans all groups, then copied group-major a row (void) at a time.
    by_bit = rows.reshape(groups, 8, words).transpose(1, 0, 2)
    by_bit = by_bit.reshape(8, groups * words)
    table = np.zeros((256, groups * words), dtype="<u8")
    for bit in range(8):
        low = 1 << bit
        np.bitwise_or(table[:low], by_bit[bit], out=table[low:2 * low])
    if unanchored:
        table[:, :words] |= np.bitwise_or.reduce(rows[:n][start])
    row = np.dtype((np.void, 8 * words))
    table = np.ascontiguousarray(table.view(row).T).view("<u8")
    table = table.reshape(groups * 256, words)
    offsets = np.arange(0, groups * 256, 256)[:, None]
    steps = _pack(ste, words)[indices.T]
    # Time-major, so that each step reads and writes one contiguous
    # (M, words) slab; its first ``groups`` bytes index the table.
    history = np.empty((t_max + 1, m, words), dtype="<u8")
    history[0] = _pack(start, words)
    patterns = history.view(np.uint8)[:, :, :groups].transpose(0, 2, 1)
    index = np.empty((groups, m), dtype=np.intp)
    gathered = np.empty((groups, m, words), dtype="<u8")
    # Indices are in range by construction: mode="clip" only spares the
    # buffered copy of ``out`` that a bounds check makes, and the method
    # skips the array-function dispatch of ``np.take``.
    for pattern, step, active in zip(patterns, steps, history[1:]):
        np.add(pattern, offsets, out=index)
        table.take(index, axis=0, out=gathered, mode="clip")
        np.bitwise_or.reduce(gathered, axis=0, out=active)
        np.bitwise_and(active, step, out=active)
    actives = np.unpackbits(
        history.view(np.uint8), axis=2, count=n, bitorder="little",
    ).view(bool).transpose(1, 0, 2)
    accepts = actives[:, 1:, np.flatnonzero(accept)].any(axis=2)
    if counts is not None:
        # One read of each kind per symbol of each stream.
        n_symbols = int(lengths.sum())
        counts.routing_reads += n_symbols
        counts.ste_reads += n_symbols
        counts.and_ops += n_symbols
        counts.accept_reads += n_symbols
    return actives, accepts


def assemble_traces(
    actives: np.ndarray,
    accepts: np.ndarray,
    lengths: np.ndarray,
    start_accepted: bool,
) -> list[APTrace]:
    """Slice :func:`batched_matrix_steps` output into per-stream traces.

    Each stream's history is cut to its true length and copied out of
    the kernel's time-major buffer, so that no trace keeps the whole
    batch's buffer alive; a zero-length stream answers Eq. 4 on the
    start vector (``start_accepted``).
    """
    return [
        APTrace(
            active=actives[k, : lengths[k] + 1].copy(),
            accept_per_step=accepts[k, : lengths[k]].copy(),
            accepted=bool(accepts[k, lengths[k] - 1]) if lengths[k]
            else start_accepted,
        )
        for k in range(len(lengths))
    ]


@dataclasses.dataclass(frozen=True)
class APTrace:
    """Step-by-step record of one AP run.

    Attributes:
        active: (T+1, N) boolean; row t is the Active Vector before symbol
            t+1 (row 0 is the start vector).
        accept_per_step: (T,) boolean; the Eq. 4 output after each symbol.
        accepted: final anchored acceptance A.
    """

    active: np.ndarray
    accept_per_step: np.ndarray
    accepted: bool

    @property
    def match_ends(self) -> tuple[int, ...]:
        """1-based positions where a match ended (accepting state active)."""
        return tuple(int(p) + 1 for p in np.nonzero(self.accept_per_step)[0])


@dataclasses.dataclass
class KernelCounts:
    """Kernel-invocation counters for hardware cost roll-ups.

    Attributes:
        ste_reads: STE-array dot products (Eq. 1 evaluations).
        routing_reads: routing-matrix dot products (Eq. 2 evaluations).
        and_ops: bitwise AND steps (Eq. 3 evaluations).
        accept_reads: accept-vector dot products (Eq. 4 evaluations).
    """

    ste_reads: int = 0
    routing_reads: int = 0
    and_ops: int = 0
    accept_reads: int = 0


class GenericAPModel:
    """Matrix form of the generic automata processor.

    Args:
        alphabet: symbol universe (defines the decoder width).
        ste: V, boolean (|Sigma|, N).
        routing: R, boolean (N, N).
        start: boolean (N,) initial Active Vector.
        accept: c, boolean (N,) Accept Vector.
    """

    def __init__(
        self,
        alphabet: Alphabet,
        ste: np.ndarray,
        routing: np.ndarray,
        start: np.ndarray,
        accept: np.ndarray,
    ) -> None:
        ste = np.asarray(ste, dtype=bool)
        routing = np.asarray(routing, dtype=bool)
        start = np.asarray(start, dtype=bool)
        accept = np.asarray(accept, dtype=bool)
        n = ste.shape[1] if ste.ndim == 2 else -1
        if ste.ndim != 2 or ste.shape[0] != alphabet.size:
            raise ValueError("V must be (|alphabet|, N)")
        if routing.shape != (n, n):
            raise ValueError("R must be (N, N)")
        if start.shape != (n,) or accept.shape != (n,):
            raise ValueError("start and accept vectors must be (N,)")
        self.alphabet = alphabet
        self.ste = ste
        self.routing = routing
        self.start = start
        self.accept = accept
        self.counts = KernelCounts()

    @classmethod
    def from_homogeneous(cls, automaton: HomogeneousAutomaton) -> "GenericAPModel":
        """Configure the processor from a homogeneous automaton."""
        return cls(
            alphabet=automaton.alphabet,
            ste=automaton.ste_matrix(),
            routing=automaton.routing_matrix(),
            start=automaton.start_vector(),
            accept=automaton.accept_vector(),
        )

    @property
    def n_states(self) -> int:
        return self.ste.shape[1]

    # -- the three processing steps ------------------------------------------

    def symbol_vector(self, symbol) -> np.ndarray:
        """Eq. 1: s = i . V with i the one-hot decode of ``symbol``."""
        self.counts.ste_reads += 1
        return self.ste[self.alphabet.index_of(symbol)]

    def follow_vector(self, active: np.ndarray) -> np.ndarray:
        """Eq. 2: f[n] = OR_i a[i] & R[i, n]."""
        self.counts.routing_reads += 1
        return (active[:, None] & self.routing).any(axis=0)

    def next_active(self, active: np.ndarray, symbol) -> np.ndarray:
        """Eq. 3: a' = f & s."""
        follow = self.follow_vector(active)
        s = self.symbol_vector(symbol)
        self.counts.and_ops += 1
        return follow & s

    def accept_value(self, active: np.ndarray) -> bool:
        """Eq. 4: A = a . c."""
        self.counts.accept_reads += 1
        return bool((active & self.accept).any())

    # -- full runs --------------------------------------------------------------

    def run(self, sequence, unanchored: bool = False) -> APTrace:
        """Process a symbol sequence through Eqs. 1-4 (a batch of one).

        Args:
            sequence: iterable of alphabet symbols.
            unanchored: re-arm start states before every symbol (streaming
                pattern search); False gives the paper's anchored semantics.
        """
        return self.run_batch([sequence], unanchored=unanchored)[0]

    def accepts(self, sequence) -> bool:
        """Anchored acceptance (the paper's output A)."""
        return self.run(sequence).accepted

    def run_batch(
        self, sequences: list, unanchored: bool = False
    ) -> list[APTrace]:
        """Process M streams in lock step (vectorized multi-stream mode).

        Hardware APs process one symbol per cycle per stream; batching M
        streams turns the per-step math into (M, N) matrix ops, which is
        how the throughput benches drive the model.  Streams may have
        different lengths: shorter streams simply stop participating, and
        every per-stream trace and kernel count is identical to stepping
        that stream alone through Eqs. 1-4.

        Args:
            sequences: list of symbol sequences (lengths may differ).
            unanchored: as in :meth:`run`.

        Returns:
            One :class:`APTrace` per stream.
        """
        if not sequences:
            return []
        indices, lengths = encode_streams(self.alphabet, sequences)
        actives, accepts = batched_matrix_steps(
            self.start, self.routing, self.ste, self.accept,
            indices, lengths, unanchored=unanchored, counts=self.counts,
        )
        # A zero-length stream answers Eq. 4 on the start vector, one
        # accept-read each.
        empty = int((lengths == 0).sum())
        self.counts.accept_reads += empty
        start_accepted = bool((self.start & self.accept).any())
        return assemble_traces(actives, accepts, lengths, start_accepted)
