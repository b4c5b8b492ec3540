"""DNA workloads: sequences, motif planting, IUPAC motif -> regex.

DNA sequencing is the paper's flagship data-intensive application (named
in the abstract, Section I and Section III-B).  This module generates
synthetic reads and reference sequences, plants motifs at known positions
(so matchers can be scored exactly), and converts IUPAC degenerate motifs
into regexes for the automata-processor path.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.automata.nfa import NFA
from repro.automata.regex import compile_regex
from repro.automata.symbols import DNA_ALPHABET

__all__ = [
    "IUPAC_CODES",
    "random_sequence",
    "plant_motif",
    "motif_to_regex",
    "motif_nfa",
    "MotifDataset",
    "make_motif_dataset",
]

IUPAC_CODES = {
    "A": "A", "C": "C", "G": "G", "T": "T",
    "R": "[AG]", "Y": "[CT]", "S": "[CG]", "W": "[AT]",
    "K": "[GT]", "M": "[AC]",
    "B": "[CGT]", "D": "[AGT]", "H": "[ACT]", "V": "[ACG]",
    "N": "[ACGT]",
}


def random_sequence(rng: np.random.Generator, length: int,
                    gc_content: float = 0.5) -> str:
    """A random nucleotide string with the given GC fraction."""
    if length < 0:
        raise ValueError("length must be non-negative")
    if not 0.0 <= gc_content <= 1.0:
        raise ValueError("gc_content must be in [0, 1]")
    p_gc = gc_content / 2.0
    p_at = (1.0 - gc_content) / 2.0
    bases = rng.choice(list("ACGT"), size=length,
                       p=[p_at, p_gc, p_gc, p_at])
    return "".join(bases)


def plant_motif(sequence: str, motif: str, position: int) -> str:
    """Overwrite ``sequence`` with ``motif`` starting at ``position``."""
    if position < 0 or position + len(motif) > len(sequence):
        raise ValueError("motif does not fit at that position")
    return sequence[:position] + motif + sequence[position + len(motif):]


def motif_to_regex(motif: str) -> str:
    """Expand IUPAC degenerate codes into a regex over {A, C, G, T}.

    Example: ``"TATAWR"`` -> ``"TATA[AT][AG]"``.
    """
    try:
        return "".join(IUPAC_CODES[c] for c in motif.upper())
    except KeyError as exc:
        raise ValueError(f"not an IUPAC code: {exc.args[0]!r}") from None


def motif_nfa(motif: str) -> NFA:
    """Compile an IUPAC motif into an NFA over the DNA alphabet."""
    return compile_regex(motif_to_regex(motif), DNA_ALPHABET)


@dataclasses.dataclass(frozen=True)
class MotifDataset:
    """A reference sequence with known motif occurrences.

    Attributes:
        sequence: the nucleotide string.
        motif: the planted IUPAC motif.
        planted_ends: 1-based end positions of planted occurrences
            (spontaneous matches may add to these; see the tests).
    """

    sequence: str
    motif: str
    planted_ends: tuple[int, ...]


def make_motif_dataset(
    rng: np.random.Generator,
    length: int,
    motif: str,
    n_plants: int,
) -> MotifDataset:
    """Generate a sequence with ``n_plants`` non-overlapping motif copies.

    Concrete instantiations of the degenerate motif are sampled per plant.

    Args:
        rng: random generator.
        length: sequence length.
        motif: IUPAC motif to plant.
        n_plants: number of copies.

    Returns:
        The dataset with 1-based end positions of the planted copies.
    """
    m = len(motif)
    # Slots are drawn as 4 * n_plants distinct candidate starts.
    if n_plants * (m + 1) > length or 4 * n_plants > length - m + 1:
        raise ValueError("sequence too short for that many plants")
    sequence = random_sequence(rng, length)
    # Pick non-overlapping slots left-to-right.
    slots = np.sort(rng.choice(length - m + 1, size=4 * n_plants,
                               replace=False))
    chosen: list[int] = []
    for pos in slots:
        if len(chosen) == n_plants:
            break
        if not chosen or pos >= chosen[-1] + m:
            chosen.append(int(pos))
    if len(chosen) < n_plants:
        # The draw crowded itself out; a start every m + 1 positions
        # always fits (checked above), so the spec never fails by seed.
        chosen = list(range(0, n_plants * (m + 1), m + 1))
    ends = []
    for pos in chosen:
        concrete = "".join(
            _sample_iupac(rng, c) for c in motif.upper()
        )
        sequence = plant_motif(sequence, concrete, pos)
        ends.append(pos + m)
    return MotifDataset(sequence=sequence, motif=motif,
                        planted_ends=tuple(ends))


def _sample_iupac(rng: np.random.Generator, code: str) -> str:
    options = IUPAC_CODES[code].strip("[]")
    return str(rng.choice(list(options)))
