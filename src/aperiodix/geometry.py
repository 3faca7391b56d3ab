"""Atomic chains from words.

Atoms sit at the left endpoints of tiles (N atoms for N tiles).  A rule's
chain takes each letter's Perron tile length and the exact Perron mean
spacing; a word without a rule takes the lengths it is given.  Diffraction
reads the positions, and `generate --chain-csv` writes them out.  Letters
become tile lengths by one table lookup (letter_indices), with no
per-letter Python loop.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .substitution import (PerronData, SubstitutionRule, expand_word, occurrence_matrix,
                           perron_data)


@dataclass(frozen=True)
class AtomChain:
    """Sorted atomic positions with tile metadata, in units of min tile length."""

    positions: np.ndarray
    tile_letters: str
    total_length: float
    mean_spacing: float

    @property
    def n_atoms(self) -> int:
        return len(self.positions)


def letter_indices(word: str, letters) -> np.ndarray:
    """Index of each letter of word in `letters` (at most 256 of them), as uint8.

    One str.translate to the characters chr(0), chr(1), ... and one
    np.frombuffer, so the array can index a table of per-letter values.
    """
    table = str.maketrans({c: chr(i) for i, c in enumerate(letters)})
    return np.frombuffer(word.translate(table).encode("latin-1"), dtype=np.uint8)


def positions_from_word(word: str, lengths: dict[str, float],
                        mean_spacing: float | None = None) -> AtomChain:
    """Cumulative tile positions; atom n sits at the left end of tile n."""
    if any(lengths[c] <= 0 for c in set(word)):
        raise ValueError("tile lengths must be positive")
    table = np.array(list(lengths.values()), dtype=float)
    tile_lengths = table[letter_indices(word, lengths)]
    positions = np.concatenate([[0.0], np.cumsum(tile_lengths)[:-1]])
    total = float(np.sum(tile_lengths))
    dbar = mean_spacing if mean_spacing is not None else total / len(word)
    return AtomChain(positions, word, total, dbar)


def chain_from_rule(rule: SubstitutionRule, order: int, seed: str | None = None) -> AtomChain:
    """Chain of sigma^order(seed) with Perron tile lengths and mean spacing."""
    letters = expand_word(rule, seed or rule.alphabet[0], order)
    return rule_chain(rule, perron_data(occurrence_matrix(rule)), letters)


def rule_chain(rule: SubstitutionRule, pd: PerronData, letters: str) -> AtomChain:
    """Chain of a word over the rule's alphabet, given the rule's Perron data.

    Each letter keeps its own Perron length, also where the rule projects
    several letters onto one tile letter; the mean spacing is the exact Perron
    average sum(rho_l d_l).  Callers that build several words of one rule
    solve its Perron data once.
    """
    lengths = {c: float(pd.lengths[i]) for i, c in enumerate(rule.alphabet)}
    chain = positions_from_word(letters, lengths, mean_spacing=float(pd.freq @ pd.lengths))
    return AtomChain(chain.positions, rule.project(letters), chain.total_length,
                     chain.mean_spacing)


def chain_to_csv(chain: AtomChain) -> str:
    out = io.StringIO()
    out.write("index,letter,position\n")
    for i, (letter, x) in enumerate(zip(chain.tile_letters, chain.positions)):
        out.write(f"{i},{letter},{x:.15g}\n")
    return out.getvalue()

