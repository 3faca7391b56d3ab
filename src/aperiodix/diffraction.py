"""Fourier amplitudes, structure factors, and Bragg/singular-continuous scaling.

Chain-level operations transform the atomic positions as they stand:
S(k) = |G(k)|^2 / N with G(k) = sum_n exp(-i k x_n).  Rule-level scaling and
classification use the species-contrast amplitude instead: atoms are weighted
by (indicator of tile a) minus its mean, on Perron-length chains rescaled to
unit mean spacing.  Equal-length families (Thue-Morse, period doubling,
Rudin-Shapiro) place atoms on the integers, so the plain sum only ever shows
the trivial lattice comb; the contrast weights expose the dyadic Bragg
family of period doubling, the singular thirds family of Thue-Morse, and the
flat Rudin-Shapiro background, which is what the peak classification is
about.

Chains without a rule behind them are summed atom by atom.  Rule-level
amplitudes (contrast spectra, the classification grid, peak scaling) use the
substitution's self-similarity instead: sigma^n(s) is a run of supertiles
sigma^m(c), m = n // 2, each placed at the chain's own position of its start,
so one k costs about 2 sqrt(N) exponentials instead of N
(_supertile_amplitude).

Growth exponents gamma are fitted on S(k*) ~ L^gamma (Bragg peaks saturate
at gamma = 1, the principal Thue-Morse peak at log2(3) - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import AtomChain, chain_from_rule
from .groups import DEFAULT_N_MAX, DEFAULT_Q_MAX, LabelGroup, nearest_element
from .substitution import SubstitutionRule, expand_word, word_length

TWO_PI = 2 * math.pi

BRAGG_GAMMA = 0.95
SC_GAMMA = 0.2
SIGNIFICANCE_RATIO = 25.0


@dataclass(frozen=True)
class DiffractionSpectrum:
    k_values: np.ndarray
    S: np.ndarray
    n_atoms: int
    length: float


@dataclass(frozen=True)
class PeakScaling:
    k_star: float
    orders: tuple[int, ...]
    amplitudes: tuple[float, ...]   # contrast |G| per order at the refined peak
    lengths: tuple[float, ...]
    gamma: float
    classification: str             # Bragg | SingularContinuous | Flat


@dataclass(frozen=True)
class SpectrumClassification:
    peaks: tuple[PeakScaling, ...]
    tags: frozenset[str]            # subset of {"PP", "SC", "AC"}
    # the top order's contrast grid the peaks were picked from
    spectrum: DiffractionSpectrum = field(compare=False, repr=False)


def fourier_amplitude(chain: AtomChain, k: float) -> float:
    """|sum_n exp(-i k x_n)| via pairwise summation."""
    return abs(_grid_amplitudes(chain.positions, None, np.array([k]))[0])


def structure_factor_grid(chain: AtomChain, k_min: float, k_max: float,
                          samples: int) -> DiffractionSpectrum:
    """S(k) = |G(k)|^2 / N on a uniform grid."""
    return _grid_spectrum(
        chain, lambda ks: np.abs(_grid_amplitudes(chain.positions, None, ks)),
        k_min, k_max, samples)


def _grid_spectrum(chain: AtomChain, amplitude, k_min: float, k_max: float,
                   samples: int) -> DiffractionSpectrum:
    """S(k) = amplitude(k)^2 / N on the uniform grid of [k_min, k_max]."""
    if samples < 2 or not k_min < k_max:
        raise ValueError("need samples >= 2 and k_min < k_max")
    ks = np.linspace(k_min, k_max, samples)
    return DiffractionSpectrum(ks, amplitude(ks)**2 / chain.n_atoms,
                               chain.n_atoms, chain.total_length)


def _grid_amplitudes(positions: np.ndarray, weights, ks: np.ndarray) -> np.ndarray:
    """G(k) = sum w_n exp(-i k x_n) (complex) for every k, chunked to bound memory.

    The one phase sum of the module: whole chains without a rule behind them
    go through it as one block, rule-level chains supertile by supertile
    (_supertile_amplitude).  numpy reduces axis 0 of a block two or more
    columns wide row by row, so each k's sum runs over the atoms in order; a
    one-column last chunk is summed pairwise instead.  The chunks depend only
    on the atom count and the grid length, and the reduction uses no threads
    (no BLAS), so the result is the same bit for bit on every run.
    """
    n = len(positions)
    chunk = max(8, min(len(ks), (1 << 22) // max(n, 1)))
    out = np.empty(len(ks), dtype=complex)
    for start in range(0, len(ks), chunk):
        sub = ks[start:start + chunk]
        phases = np.exp(-1j * positions[:, None] * sub[None, :])
        if weights is not None:
            phases *= weights[:, None]
        out[start:start + chunk] = phases.sum(axis=0)
    return out


def _supertile_amplitude(rule: SubstitutionRule, order: int,
                         positions: np.ndarray, weights):
    """k-vector -> |sum w_n exp(-i k x_n)| over the chain of sigma^order, by supertiles.

    sigma^order(s) = sigma^m(sigma^(order-m)(s)) with m = order // 2, so the
    chain is a run of supertiles sigma^m(c) along the coarse word, and
    G(k) = sum_c F_c(k) P_c(k): F_c sums one c-supertile (the chain's own
    positions at its first occurrence, minus that occurrence's start), P_c
    the plain phases of the starts of every c-supertile.  That costs
    (|sigma^(order-m)(s)| + sum_c |sigma^m(c)|) exponentials per k, about
    2 sqrt(N), instead of N.  Placing supertiles at the chain's own positions
    keeps the result within ~1e-10 max|G|^2 of the direct sum, because both
    round the same cumulative positions.
    """
    m = order // 2
    coarse = np.array(list(expand_word(rule, rule.alphabet[0], order - m)))
    size = {c: word_length(rule, c, m) for c in rule.alphabet}
    sizes = np.array([size[c] for c in coarse])
    starts = np.cumsum(sizes) - sizes
    parts = []
    for c in rule.alphabet:
        at = starts[coarse == c]
        if len(at):
            tile = slice(at[0], at[0] + size[c])
            parts.append((positions[tile] - positions[at[0]],
                          None if weights is None else weights[tile],
                          positions[at]))

    def amplitude(ks):
        return np.abs(sum(_grid_amplitudes(offsets, w, ks)
                          * _grid_amplitudes(origins, None, ks)
                          for offsets, w, origins in parts))

    return amplitude


# -- species contrast ---------------------------------------------------------

def contrast_weights(chain: AtomChain, species: str = "a") -> np.ndarray:
    """Indicator of the given tile letter minus its mean (sums to zero)."""
    marks = np.array([1.0 if c == species else 0.0 for c in chain.tile_letters])
    return marks - marks.mean()


def scaled_chain(rule: SubstitutionRule, order: int) -> AtomChain:
    """Perron-length chain rescaled to unit mean spacing (k in units of 1/dbar)."""
    chain = chain_from_rule(rule, order)
    d = chain.mean_spacing
    return AtomChain(chain.positions / d, chain.tile_letters,
                     chain.total_length / d, 1.0)


def contrast_spectrum(rule: SubstitutionRule, order: int, k_min: float,
                      k_max: float, samples: int) -> DiffractionSpectrum:
    return _grid_spectrum(*_contrast_chain(rule, order), k_min, k_max, samples)


def _contrast_chain(rule: SubstitutionRule, order: int):
    """The scaled chain of one order with its contrast amplitude k-vector -> |G|."""
    chain = scaled_chain(rule, order)
    return chain, _supertile_amplitude(rule, order, chain.positions,
                                       contrast_weights(chain))


# -- peak scaling --------------------------------------------------------------

def _refine_peak(fun, a: float, b: float, rounds: int = 5, points: int = 65) -> float:
    """Argmax of fun on [a, b] by iterated grid zoom.

    fun maps a k-vector to its values, so each round is one call on its
    whole grid (one supertile-factorised sum for the contrast amplitude).
    Quasiperiodic spectra are spiky and far from unimodal, so golden-section
    style bracketing can lose the peak; an odd-count grid always samples the
    window centre, and each round zooms onto the winning cell.
    """
    best_k, best_v = 0.5 * (a + b), -math.inf
    for _ in range(rounds):
        ks = np.linspace(a, b, points)
        vals = fun(ks)
        i = int(np.argmax(vals))
        if vals[i] > best_v:
            best_v, best_k = float(vals[i]), float(ks[i])
        lo = max(i - 1, 0)
        hi = min(i + 1, points - 1)
        a, b = float(ks[lo]), float(ks[hi])
    return best_k


def peak_scaling(rule: SubstitutionRule, k_star: float, orders,
                 refine_halfwidth: float = 0.02) -> PeakScaling:
    """Growth of the contrast structure factor at a peak across orders.

    Per order the peak is re-located within +-refine_halfwidth of k_star
    (half a grid cell in the usual scans), then log S is fitted against
    log L.  gamma is clipped to [0, 1.05]; Bragg means gamma >= 0.95,
    singular continuous gamma in [0.2, 0.95).
    """
    orders = tuple(orders)
    chains = {order: _contrast_chain(rule, order) for order in set(orders)}
    return _peak_scaling(chains, orders, k_star, refine_halfwidth)


def _peak_scaling(chains, orders: tuple[int, ...], k_star: float,
                  refine_halfwidth: float) -> PeakScaling:
    """peak_scaling on chains built beforehand: order -> (chain, amplitude)."""
    if len(orders) < 4:
        raise ValueError("need at least 4 orders for a scaling fit")
    amplitudes = []
    lengths = []
    atoms = []
    k_refined = k_star
    for order in orders:
        chain, amp = chains[order]
        k_refined = _refine_peak(amp, k_star - refine_halfwidth,
                                 k_star + refine_halfwidth)
        amplitudes.append(amp(np.array([k_refined]))[0])
        lengths.append(chain.total_length)
        atoms.append(chain.n_atoms)
    s_values = [a * a / n for a, n in zip(amplitudes, atoms)]
    xs = np.log(lengths)
    ys = np.log(np.maximum(s_values, 1e-300))
    slope = float(np.polyfit(xs, ys, 1)[0])
    gamma = min(max(slope, 0.0), 1.05)
    if gamma >= BRAGG_GAMMA:
        cls = "Bragg"
    elif gamma >= SC_GAMMA:
        cls = "SingularContinuous"
    else:
        cls = "Flat"
    return PeakScaling(k_refined, orders, tuple(amplitudes), tuple(lengths),
                       gamma, cls)


def classify_spectrum(rule: SubstitutionRule, orders, k_min: float = 0.05,
                      k_max: float = 4 * math.pi, samples: int = 2048,
                      max_peaks: int = 6) -> SpectrumClassification:
    """Scaling classification of the strongest local maxima, plus overall tags.

    Maxima of the contrast structure factor at the largest order qualify as
    peaks when they rise a fixed factor above the mean grid level (flat
    backgrounds never qualify); each peak is then scaled across the orders.
    Each order's chain is built once and serves the grid and every peak.
    Tags: PP if any Bragg peak, SC if any singular-continuous one, AC when
    nothing qualifies at all.
    """
    orders = tuple(orders)
    chains = {order: _contrast_chain(rule, order) for order in set(orders)}
    spectrum = _grid_spectrum(*chains[max(orders)], k_min, k_max, samples)
    ks, svals = spectrum.k_values, spectrum.S
    mean_level = float(svals.mean())
    candidates = []
    for i in range(1, len(ks) - 1):
        if svals[i] > svals[i - 1] and svals[i] > svals[i + 1]:
            if svals[i] >= SIGNIFICANCE_RATIO * mean_level:
                candidates.append(i)
    candidates.sort(key=lambda i: -svals[i])
    cell = (k_max - k_min) / (samples - 1)
    chosen: list[int] = []
    for i in candidates:
        if all(abs(ks[i] - ks[j]) > 8 * cell for j in chosen):
            chosen.append(i)
        if len(chosen) == max_peaks:
            break
    peaks = tuple(_peak_scaling(chains, orders, float(ks[i]), cell / 2)
                  for i in chosen)
    tags = set()
    for peak in peaks:
        if peak.classification == "Bragg":
            tags.add("PP")
        elif peak.classification == "SingularContinuous":
            tags.add("SC")
    if not tags:
        tags = {"AC"}
    return SpectrumClassification(peaks, frozenset(tags), spectrum)


# -- Bragg peaks against a label group -----------------------------------------

def module_distance(k: float, group: LabelGroup, q_max: int = DEFAULT_Q_MAX,
                    n_max: int = DEFAULT_N_MAX, k_max: float | None = None) -> float:
    """Distance from k to the nearest element of 2 pi * group, coordinates bounded.

    The Bragg frequencies of a tiling lie in 2 pi times the trace image, so
    a peak is checked with the nearest_element search that labels gaps.
    k_max is ignored, since coordinates and not k bound the search; the
    benchmark's traced bloch replay still passes it.
    """
    _, residual = nearest_element(k / TWO_PI, group, q_max=q_max, n_max=n_max)
    return TWO_PI * residual
