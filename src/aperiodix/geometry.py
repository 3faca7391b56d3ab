"""Atomic chains from words, and their fluctuation statistics.

Atoms sit at the left endpoints of tiles (N atoms for N tiles).  The
fluctuations u_n = x_n - dbar n around the mean spacing decide
quasiperiodicity: their window-normalised extent equals 1 for balanced
(cut-and-project) words, while non-Pisot rules show power-law growth
u_n ~ n^beta with beta = ln|lambda2| / ln lambda1.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import TooShort
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


@dataclass(frozen=True)
class FluctuationStats:
    u: np.ndarray
    delta_u_raw: float
    delta_u: float          # window-normalised (1 = quasiperiodic)
    beta_fit: float
    beta_residual: float


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


def chain_from_rule(rule: SubstitutionRule, order: int, seed: str | None = None,
                    lengths: dict[str, float] | None = None) -> AtomChain:
    """Chain of sigma^order(seed) with Perron tile lengths and mean spacing.

    Each letter keeps its own Perron length, also where the rule projects
    several letters onto one tile letter; the mean spacing is the exact Perron
    average sum(rho_l d_l).  Given lengths are per tile letter.
    """
    seed = seed or rule.alphabet[0]
    letters = expand_word(rule, seed, order)
    if lengths is None:
        pd = perron_data(occurrence_matrix(rule))
        lengths = {c: float(pd.lengths[i]) for i, c in enumerate(rule.alphabet)}
        dbar = float(pd.freq @ pd.lengths)
    else:
        lengths = {c: lengths[rule.project(c)] for c in set(letters)}
        dbar = None
    chain = positions_from_word(letters, lengths, mean_spacing=dbar)
    return AtomChain(chain.positions, rule.project(letters), chain.total_length,
                     chain.mean_spacing)


def fluctuation_stats(chain: AtomChain, mean_spacing: float | None = None) -> FluctuationStats:
    """Fluctuations about the mean and their growth exponent.

    delta_u is the raw extent divided by the tile-length spread (the
    cut-and-project window width for two-letter rules); beta_fit is the
    least-squares slope of log sup_{n<=m} |u_n| against log m over dyadic m.
    """
    n = chain.n_atoms
    if n < 16:
        raise TooShort("need at least 16 atoms")
    dbar = mean_spacing if mean_spacing is not None else chain.mean_spacing
    u = chain.positions - dbar * np.arange(n)
    raw = float(u.max() - u.min())
    spacings = np.diff(chain.positions[:4097])
    spread = float(spacings.max() - spacings.min()) if len(spacings) else 0.0
    if spread > 1e-9:
        normalised = raw / spread
    else:
        normalised = 0.0 if raw < 1e-6 else math.inf

    sup = np.maximum.accumulate(np.abs(u))
    ms = [2**k for k in range(4, n.bit_length()) if 2**k <= n - 1]
    beta, residual = 0.0, 0.0
    if len(ms) >= 2 and any(sup[m] > 0 for m in ms):
        xs = np.log([float(m) for m in ms])
        ys = np.log([max(float(sup[m]), 1e-300) for m in ms])
        slope, intercept = np.polyfit(xs, ys, 1)
        beta = float(slope)
        residual = float(np.sqrt(np.mean((ys - (slope * xs + intercept)) ** 2)))
    return FluctuationStats(u, raw, normalised, beta, residual)


def normalized_delta_u(rule: SubstitutionRule, order: int = 14) -> float:
    """Window-normalised fluctuation extent of sigma^order, for classification."""
    chain = chain_from_rule(rule, order)
    return fluctuation_stats(chain).delta_u


def chain_to_csv(chain: AtomChain) -> str:
    out = io.StringIO()
    out.write("index,letter,position\n")
    for i, (letter, x) in enumerate(zip(chain.tile_letters, chain.positions)):
        out.write(f"{i},{letter},{x:.15g}\n")
    return out.getvalue()


def chain_from_csv(text: str) -> AtomChain:
    lines = [ln for ln in text.strip().splitlines()[1:] if ln]
    letters = []
    positions = []
    for line in lines:
        _, letter, pos = line.split(",")
        letters.append(letter)
        positions.append(float(pos))
    positions = np.array(positions)
    if len(positions) > 1:
        spacing = np.diff(positions)
        total = float(positions[-1] - positions[0] + spacing[-1])
    else:
        total = float(positions[0]) + 1.0
    return AtomChain(positions, "".join(letters), total, total / len(positions))
