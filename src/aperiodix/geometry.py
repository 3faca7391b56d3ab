"""Atomic chains from words.

Atoms sit at the left endpoints of tiles (N atoms for N tiles).  A rule's
chain takes each letter's Perron tile length and the exact Perron mean
spacing; a word without a rule takes the lengths it is given.  Diffraction
reads the positions, and `generate --chain-csv` writes them out.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .substitution import SubstitutionRule, expand_word, occurrence_matrix, perron_data


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


def positions_from_word(word: str, lengths: dict[str, float],
                        mean_spacing: float | None = None) -> AtomChain:
    """Cumulative tile positions; atom n sits at the left end of tile n."""
    if any(lengths[c] <= 0 for c in set(word)):
        raise ValueError("tile lengths must be positive")
    tile_lengths = np.array([lengths[c] for c in word], dtype=float)
    positions = np.concatenate([[0.0], np.cumsum(tile_lengths)[:-1]])
    total = float(np.sum(tile_lengths))
    dbar = mean_spacing if mean_spacing is not None else total / len(word)
    return AtomChain(positions, word, total, dbar)


def chain_from_rule(rule: SubstitutionRule, order: int, seed: str | None = None) -> AtomChain:
    """Chain of sigma^order(seed) with Perron tile lengths and mean spacing.

    Each letter keeps its own Perron length, also where the rule projects
    several letters onto one tile letter; the mean spacing is the exact Perron
    average sum(rho_l d_l).
    """
    letters = expand_word(rule, seed or rule.alphabet[0], order)
    pd = perron_data(occurrence_matrix(rule))
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

