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

Whole chains (structure_factor_grid, with or without a rule behind them) are
evaluated on one uniform grid k_j = k_min + j h, so each phase factorises:
with R = ceil(sqrt(samples)) and j = qR + r, e^{-i k_j x} = e^{-i (k_min + qRh) x}
e^{-i rhx}, and the grid costs (Q + R) N exponentials plus one contraction
over the atoms instead of samples N exponentials (_uniform_grid_amplitudes).
Rule-level amplitudes (contrast spectra, the classification grid, peak
scaling) use the substitution's self-similarity instead: sigma^n(s) is a run
of supertiles sigma^m(c), m = n // 2, each placed at the chain's own position
of its start, so one k costs about 2 sqrt(N) exponentials instead of N
(_supertile_amplitude).  The peak zoom evaluates their parts window by
window, each window a uniform grid of its own, by the same factorised sum;
the rule-level grids (contrast spectra, the classification grid) still take
the plain per-k sum (_grid_amplitudes).  One rule-level call solves the
rule's Perron data once and expands its words once for all its orders
(_contrast_chains).

Growth exponents gamma are fitted on S(k*) ~ L^gamma (Bragg peaks saturate
at gamma = 1, the principal Thue-Morse peak at log2(3) - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .geometry import AtomChain, chain_from_rule, letter_indices, rule_chain
from .groups import DEFAULT_N_MAX, DEFAULT_Q_MAX, LabelGroup, nearest_element
from .substitution import SubstitutionRule, expansions, occurrence_matrix, perron_data

TWO_PI = 2 * math.pi

BRAGG_GAMMA = 0.95
SC_GAMMA = 0.2
SIGNIFICANCE_RATIO = 25.0
# the classification grid and the peaks picked from it
CLASSIFY_K_MIN = 0.05
CLASSIFY_K_MAX = 4 * math.pi
CLASSIFY_SAMPLES = 2048
MAX_PEAKS = 6
# iterated grid zoom of each peak window
ZOOM_ROUNDS = 3
ZOOM_POINTS = 65


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


def structure_factor_grid(chain: AtomChain, k_min: float, k_max: float,
                          samples: int) -> DiffractionSpectrum:
    """S(k) = |G(k)|^2 / N on a uniform grid, by the factorised phase sum."""
    return _grid_spectrum(
        chain, lambda ks: np.abs(_uniform_grid_amplitudes(
            chain.positions, None, ks[:1], ks[-1:], len(ks))[0]),
        k_min, k_max, samples)


def _grid_spectrum(chain: AtomChain, amplitude, k_min: float, k_max: float,
                   samples: int) -> DiffractionSpectrum:
    """S(k) = amplitude(k)^2 / N on the uniform grid of [k_min, k_max]."""
    if samples < 2 or not k_min < k_max:
        raise ValueError("need samples >= 2 and k_min < k_max")
    if not math.isfinite(k_max - k_min):
        raise ValueError(f"k_max - k_min must be finite, got {k_max - k_min}")
    phase = max(abs(k_min), abs(k_max)) * chain.total_length
    if not math.isfinite(phase):
        raise ValueError(f"k x overflows: max |k| times the chain length is {phase}")
    ks = np.linspace(k_min, k_max, samples)
    return DiffractionSpectrum(ks, amplitude(ks)**2 / chain.n_atoms,
                               chain.n_atoms, chain.total_length)


def _uniform_grid_amplitudes(positions: np.ndarray, weights, starts: np.ndarray,
                             stops: np.ndarray, count: int) -> np.ndarray:
    """G(k) = sum w_n exp(-i k x_n) (complex) on a batch of uniform windows.

    Row j holds G on window j's grid np.linspace(starts[j], stops[j], count);
    weights None means w_n = 1.  Each window is factorised on its own: with
    h = (stop - start) / (count - 1), R = ceil(sqrt(count)) and
    Q = ceil(count / R), grid point qR + r has the phase
    e^{-i (start + qRh) x} e^{-i rhx}: a Q-column block A and an R-column
    block B of exponentials per atom, and G on the Q x R grid is the
    contraction sum_n A[n, q] B[n, r], cut back to count points.  That is
    (Q + R) N exponentials per window instead of count N.  The atoms are
    taken in blocks of at most 2^18 / (Q + R), whatever the number of
    windows, accumulated in atom order, so a block holds about as many
    elements per window as a chunk of _grid_amplitudes.  einsum without
    optimize contracts in numpy's own loops (no BLAS, no threads) and sums
    each window's atoms in order, so a window's row is the same bit for bit
    on every run and in any batch.
    """
    h = (stops - starts) / (count - 1)
    n_r = math.isqrt(count - 1) + 1
    n_q = -(-count // n_r)
    coarse = starts[:, None] + (n_r * h)[:, None] * np.arange(n_q)
    fine = h[:, None] * np.arange(n_r)
    block = (1 << 18) // (n_q + n_r)
    total = np.zeros((len(starts), n_q, n_r), dtype=complex)
    for start in range(0, len(positions), block):
        x = positions[start:start + block, None, None]
        outer = -1j * x * coarse
        inner = -1j * x * fine
        np.exp(outer, out=outer)
        np.exp(inner, out=inner)
        if weights is not None:
            outer *= weights[start:start + block, None, None]
        total += np.einsum("jwq,jwr->wqr", outer, inner, optimize=False)
    return total.reshape(len(starts), -1)[:, :count]


def _grid_amplitudes(positions: np.ndarray, weights, ks: np.ndarray) -> np.ndarray:
    """G(k) = sum w_n exp(-i k x_n) (complex) for every k, chunked to bound memory.

    The per-k phase sum behind the rule-level grids (contrast spectra and the
    classification grid), taken supertile by supertile (_supertile_amplitude);
    the peak zoom's windows take the factorised sum of
    _uniform_grid_amplitudes instead.  numpy reduces axis 0 of a
    block two or more columns wide row by row, so each k's sum runs over the
    atoms in order, whatever the other k of the grid; a one-column block
    would be summed pairwise instead, so a one-column tail is folded into the
    chunk before it.  The reduction uses no threads (no BLAS), so the result
    is the same bit for bit on every run.  The exponential is taken in place,
    so a chunk holds one complex block: about 2^18 elements, or eight columns
    of a longer chain.
    """
    n = len(positions)
    chunk = max(8, min(len(ks), (1 << 18) // max(n, 1)))
    bounds = [*range(0, len(ks), chunk), len(ks)]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    out = np.empty(len(ks), dtype=complex)
    for start, stop in zip(bounds, bounds[1:]):
        phases = -1j * positions[:, None] * ks[None, start:stop]
        np.exp(phases, out=phases)
        if weights is not None:
            phases *= weights[:, None]
        out[start:stop] = phases.sum(axis=0)
    return out


def _supertile_amplitude(rule: SubstitutionRule, levels, order: int,
                         positions: np.ndarray, weights) -> "_Supertiles":
    """|sum w_n exp(-i k x_n)| over the chain of sigma^order, by supertiles.

    levels[j] maps each letter c to sigma^j(c), for j up to order, from
    substitution.expansions of the chain's seed rule.alphabet[0].
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
    coarse = letter_indices(levels[order - m][rule.alphabet[0]], rule.alphabet)
    size = np.array([len(levels[m][c]) for c in rule.alphabet])
    sizes = size[coarse]
    starts = np.cumsum(sizes) - sizes
    parts = []
    for i in range(len(rule.alphabet)):
        at = starts[coarse == i]
        if len(at):
            tile = slice(at[0], at[0] + size[i])
            parts.append((positions[tile] - positions[at[0]],
                          None if weights is None else weights[tile],
                          positions[at]))
    return _Supertiles(tuple(parts))


@dataclass(frozen=True)
class _Supertiles:
    """The parts (offsets F_c sums, their weights, origins P_c sums) of |G|."""
    parts: tuple

    def __call__(self, ks: np.ndarray) -> np.ndarray:
        """|G| on a k-vector, each part by the per-k sum (the rule-level grids)."""
        return np.abs(sum(_grid_amplitudes(offsets, w, ks)
                          * _grid_amplitudes(origins, None, ks)
                          for offsets, w, origins in self.parts))

    def windows(self, starts: np.ndarray, stops: np.ndarray, count: int) -> np.ndarray:
        """|G| on every window's np.linspace(start, stop, count), one row per
        window, each part by the factorised sum of _uniform_grid_amplitudes."""
        return np.abs(sum(_uniform_grid_amplitudes(offsets, w, starts, stops, count)
                          * _uniform_grid_amplitudes(origins, None, starts, stops, count)
                          for offsets, w, origins in self.parts))


# -- species contrast ---------------------------------------------------------

def contrast_weights(chain: AtomChain) -> np.ndarray:
    """Indicator of the chain's first tile in sorted order minus its mean (sums
    to zero): the tile the spectral models give v_a, whatever its letter."""
    codes = np.frombuffer(chain.tile_letters.encode("utf-32-le"), dtype="<u4")
    marks = (codes == codes.min()).astype(float)
    return marks - marks.mean()


def scaled_chain(rule: SubstitutionRule, order: int) -> AtomChain:
    """Perron-length chain rescaled to unit mean spacing (k in units of 1/dbar)."""
    return _unit_spacing(chain_from_rule(rule, order))


def _unit_spacing(chain: AtomChain) -> AtomChain:
    d = chain.mean_spacing
    return AtomChain(chain.positions / d, chain.tile_letters,
                     chain.total_length / d, 1.0)


def contrast_spectrum(rule: SubstitutionRule, order: int, k_min: float,
                      k_max: float, samples: int) -> DiffractionSpectrum:
    return _grid_spectrum(*_contrast_chains(rule, (order,))[order], k_min, k_max, samples)


def _contrast_chains(rule: SubstitutionRule, orders) -> dict:
    """order -> (scaled chain, contrast amplitude |G| as _Supertiles) for every order.

    The rule's Perron data is solved once and its words are expanded in one
    pass up to the largest order; every order's chain and supertiles are
    read from those.
    """
    pd = perron_data(occurrence_matrix(rule))
    levels = list(islice(expansions(rule, rule.alphabet[:1]), max(orders) + 1))
    return {order: _contrast_chain(rule, pd, levels, order) for order in sorted(set(orders))}


def _contrast_chain(rule: SubstitutionRule, pd, levels, order: int):
    """The scaled chain of one order with its contrast amplitude."""
    chain = _unit_spacing(rule_chain(rule, pd, levels[order][rule.alphabet[0]]))
    return chain, _supertile_amplitude(rule, levels, order, chain.positions,
                                       contrast_weights(chain))


# -- peak scaling --------------------------------------------------------------

def _zoom_peaks(fun, windows) -> list[tuple[float, float]]:
    """(argmax, max) of fun on each window [a, b] by iterated grid zoom, all
    windows at once.

    fun(starts, stops, count) gives the values on every window's
    np.linspace(start, stop, count), one row per window, so each round is
    one call on the clamped windows as they stand (for the contrast
    amplitude, _Supertiles.windows: each window takes the factorised
    uniform-grid sum on its own).  A window's row does not depend on the
    other windows of its call (_uniform_grid_amplitudes), so each window
    zooms as it would alone, and the max it returns is the amplitude the
    peak's fit uses.  Quasiperiodic spectra are spiky and far from
    unimodal, so golden-section style bracketing can lose the peak; an
    odd-count grid always samples the window centre, and each round zooms
    onto the winning cell.  Each of the ZOOM_ROUNDS rounds samples
    ZOOM_POINTS points per window.
    """
    bounds = np.array(windows, dtype=float)
    best = [(0.5 * (a + b), -math.inf) for a, b in bounds.tolist()]
    for _ in range(ZOOM_ROUNDS):
        values = fun(bounds[:, 0], bounds[:, 1], ZOOM_POINTS)
        for j, vals in enumerate(values):
            ks = np.linspace(bounds[j, 0], bounds[j, 1], ZOOM_POINTS)
            i = int(np.argmax(vals))
            if vals[i] > best[j][1]:
                best[j] = (float(ks[i]), float(vals[i]))
            bounds[j] = ks[max(i - 1, 0)], ks[min(i + 1, ZOOM_POINTS - 1)]
    return best


def peak_scaling(rule: SubstitutionRule, k_star: float, orders,
                 refine_halfwidth: float = 0.02) -> PeakScaling:
    """Growth of the contrast structure factor at a peak across orders.

    Per order the peak is re-located within +-refine_halfwidth of k_star
    (half a grid cell in the usual scans), then log S is fitted against
    log L.  gamma is clipped to [0, 1.05]; Bragg means gamma >= 0.95,
    singular continuous gamma in [0.2, 0.95).
    """
    orders = tuple(orders)
    return _peak_scaling(_contrast_chains(rule, orders), orders, [k_star],
                         refine_halfwidth)[0]


def _peak_scaling(chains, orders: tuple[int, ...], k_stars: list[float],
                  refine_halfwidth: float) -> list[PeakScaling]:
    """peak_scaling of every k_star on chains built beforehand: order -> (chain, amplitude).

    Per order, the windows of all peaks are zoomed in the same amplitude
    calls (_zoom_peaks), and each peak keeps the amplitude its zoom found.
    """
    if len(orders) < 4:
        raise ValueError("need at least 4 orders for a scaling fit")
    refined = [_zoom_peaks(chains[order][1].windows,
                           [(k - refine_halfwidth, k + refine_halfwidth) for k in k_stars])
               for order in orders]
    lengths = [chains[order][0].total_length for order in orders]
    xs = np.log(lengths)
    peaks = []
    for zoomed in zip(*refined):
        ks, amplitudes = zip(*zoomed)
        s_values = [a * a / chains[order][0].n_atoms for a, order in zip(amplitudes, orders)]
        ys = np.log(np.maximum(s_values, 1e-300))
        slope = float(np.polyfit(xs, ys, 1)[0])
        gamma = min(max(slope, 0.0), 1.05)
        if gamma >= BRAGG_GAMMA:
            cls = "Bragg"
        elif gamma >= SC_GAMMA:
            cls = "SingularContinuous"
        else:
            cls = "Flat"
        peaks.append(PeakScaling(ks[-1], orders, tuple(amplitudes), tuple(lengths),
                                 gamma, cls))
    return peaks


def classify_spectrum(rule: SubstitutionRule, orders) -> SpectrumClassification:
    """Scaling classification of the strongest local maxima, plus overall tags.

    Maxima of the contrast structure factor at the largest order, on the
    CLASSIFY_SAMPLES-point grid of [CLASSIFY_K_MIN, CLASSIFY_K_MAX], qualify
    as peaks when they rise a fixed factor above the mean level of the grid's
    interior points (flat backgrounds never qualify); the MAX_PEAKS strongest,
    each more than eight grid cells from a stronger one, are then scaled
    across the orders.
    Each order's chain is built once and serves the grid and every peak, and
    each zoom round of an order refines all peaks in one amplitude call.
    Tags: PP if any Bragg peak, SC if any singular-continuous one, AC when
    nothing qualifies at all.
    """
    orders = tuple(orders)
    chains = _contrast_chains(rule, orders)
    spectrum = _grid_spectrum(*chains[max(orders)], CLASSIFY_K_MIN, CLASSIFY_K_MAX,
                              CLASSIFY_SAMPLES)
    ks, svals = spectrum.k_values, spectrum.S
    # interior points only: a grid end on a Bragg peak (CLASSIFY_K_MAX is in
    # 2 pi Z) can hold nearly the whole sum and would set the level
    mean_level = float(svals[1:-1].mean())
    candidates = []
    for i in range(1, len(ks) - 1):
        if svals[i] > svals[i - 1] and svals[i] > svals[i + 1]:
            if svals[i] >= SIGNIFICANCE_RATIO * mean_level:
                candidates.append(i)
    candidates.sort(key=lambda i: -svals[i])
    cell = (CLASSIFY_K_MAX - CLASSIFY_K_MIN) / (CLASSIFY_SAMPLES - 1)
    chosen: list[int] = []
    for i in candidates:
        if all(abs(ks[i] - ks[j]) > 8 * cell for j in chosen):
            chosen.append(i)
        if len(chosen) == MAX_PEAKS:
            break
    peaks = tuple(_peak_scaling(chains, orders, [float(ks[i]) for i in chosen],
                                cell / 2)) if chosen else ()
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
