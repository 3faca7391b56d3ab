"""Tight-binding chains on words and their eigenvalue spectra.

The Hamiltonian acts as (H phi)_n = t_{n-1,n} phi_{n-1} + t_{n,n+1} phi_{n+1}
+ v_n phi_n with free ends, and the eigenproblem is read as H phi = 2 e phi,
so all reported energies are halved matrix eigenvalues.  The production
solver is Sturm-sequence bisection: LDL pivot sign counts, vectorised over
the shifts and taken over blocks of sites at once.  Each bisection pass
counts once per distinct midpoint (shared shifts) and leaves out every index
whose midpoint has rounded onto an end it already knows (settled cells).
While a pass has few distinct midpoints, one count also takes both possible
next midpoints, so one sweep makes two halvings (two-level sweeps): at these
sizes a count costs about the same at any width.  The Sturm count also takes
a windows axis, several chains of one length counted at the same shifts in
one call.  An independent characteristic-polynomial oracle covers small
sizes for cross-checks.  Where only the integrated density of states at a
few energies is needed, as for the hull-averaged gap labels in `report`, a
Sturm count at those energies gives it without a full spectrum.  Gaps are
the wide spacings of a spectrum, found by one scan: detect_gaps reports each
as it is, bulk_gaps merges pieces split by at most MAX_STRAYS boundary levels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeLimit

ORACLE_MAX = 12
PIVMIN = 1e-280
BISECT_STEPS = 60
STURM_BLOCK = 16  # sites per block of pivots; at most 255 (uint8 block counts)
TWO_LEVEL_SHIFTS = 1536  # most distinct midpoints a pass takes two halvings for
MAX_STRAYS = 2  # most stray levels between two detected pieces of one bulk gap


@dataclass(frozen=True)
class OnsiteModel:
    """Letter-dependent site energies, unit hoppings."""

    v_a: float
    v_b: float


@dataclass(frozen=True)
class HoppingModel:
    """Zero site energies, bond strengths exp(-eps^2 (v_n + v_{n+1}) / 2)."""

    v_a: float
    v_b: float
    eps: float


@dataclass(frozen=True)
class TightBindingChain:
    onsite: np.ndarray    # length N
    hopping: np.ndarray   # length N-1, all positive

    @property
    def size(self) -> int:
        return len(self.onsite)


@dataclass(frozen=True)
class EnergySpectrum:
    """Sorted halved eigenvalues of the free-boundary chain."""

    eigenvalues: np.ndarray

    @property
    def size(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True)
class Gap:
    lower: float
    upper: float
    width: float
    ids_value: float


def build_chain(word: str, model) -> TightBindingChain:
    """Chain from a two-letter word under the on-site or hopping model."""
    if len(word) < 2:
        raise ValueError("word must have at least 2 letters")
    letters = sorted(set(word))
    if len(letters) > 2:
        raise ValueError("word must use at most two letters (project tiles first)")
    values = {letters[0]: model.v_a}
    if len(letters) == 2:
        values[letters[1]] = model.v_b
    v_seq = np.array([values[c] for c in word], dtype=float)
    if isinstance(model, OnsiteModel):
        return TightBindingChain(v_seq, np.ones(len(word) - 1))
    if isinstance(model, HoppingModel):
        t = np.exp(-0.5 * model.eps**2 * (v_seq[:-1] + v_seq[1:]))
        return TightBindingChain(np.zeros(len(word)), t)
    raise TypeError(f"unknown model {model!r}")


def _gershgorin(d: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    n = len(d)
    radius = np.zeros(n)
    if n > 1:
        radius[:-1] += np.abs(b)
        radius[1:] += np.abs(b)
    return float(np.min(d - radius)), float(np.max(d + radius))


def _sturm_count(d: np.ndarray, b2: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Number of eigenvalues of the tridiagonal matrix strictly below each x.

    LDL pivot recurrence q_i = (d_i - x) - b_{i-1}^2 / q_{i-1}; the count is
    the number of negative pivots, and a pivot smaller than PIVMIN in size is
    taken as -PIVMIN (zero pivots count as below, as in LAPACK dstebz).
    Vectorised over the shifts and blocked over sites: one 2-D subtraction
    fills a block of STURM_BLOCK rows with d_i - x, each row is then divided
    and subtracted in place, and the block's negative pivots are counted at
    once; a copy of its last row carries the recurrence into the next block.
    A block runs without the guard first and again with it, site by site,
    only if it met a pivot below PIVMIN; a block that met none is what the
    guarded recurrence gives.  d of shape (n, W) and b2 of shape (n-1, W)
    are W chains of one length (a windows axis), counted at the same shifts
    in one pass over the sites; the counts then have shape (W, m).  Every
    operation is elementwise, so each shift's count is the same to the bit
    however the shifts and the chains are grouped.
    """
    d = np.asarray(d, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    xs = np.asarray(xs, dtype=float)
    n = len(d)
    shape = d.shape[1:] + xs.shape
    # q_0 = (d_0 - x) - 0 / 1; a windows axis divides row by row
    coeffs = [0.0, *(b2.tolist() if d.ndim == 1 else b2[..., None])]
    block = np.empty((min(STURM_BLOCK, n), *shape))
    mag = np.empty_like(block)
    negative = np.empty(block.shape, dtype=bool)
    carry, quot, tiny = np.ones(shape), np.empty(shape), np.empty(shape, dtype=bool)
    block_count = np.empty(shape, dtype=np.uint8)
    count = np.zeros(shape, dtype=np.int64)
    with np.errstate(all="ignore"):  # unguarded zero pivots divide by zero
        for start in range(0, n, STURM_BLOCK):
            stop = min(start + STURM_BLOCK, n)
            rows = block[:stop - start]
            for guard in (False, True):
                np.subtract(d[start:stop, ..., None], xs, out=rows)
                prev = carry
                for c, row in zip(coeffs[start:stop], rows):
                    np.divide(c, prev, out=quot)
                    np.subtract(row, quot, out=row)
                    if guard:
                        np.less(np.abs(row, out=quot), PIVMIN, out=tiny)
                        np.copyto(row, -PIVMIN, where=tiny)
                    prev = row
                smallest = np.fmin.reduce(np.abs(rows, out=mag[:len(rows)]),
                                          axis=None, initial=np.inf)
                if guard or not smallest < PIVMIN:
                    break
            signs = np.less(rows, 0.0, out=negative[:len(rows)]).view(np.uint8)
            count += np.add.reduce(signs, axis=0, dtype=np.uint8, out=block_count)
            np.copyto(carry, rows[-1])
    return count


def eigenvalues_tridiag(chain: TightBindingChain) -> EnergySpectrum:
    """All halved eigenvalues by bisection on the Sturm counts.

    Every index is bisected in lockstep; 60 fixed halvings of the Gershgorin
    interval put each eigenvalue within ~1e-16 of the spectral span,
    deterministically.  A pass counts once per distinct midpoint (early
    passes have 1, 2, 4, ... of them) and scatters the counts back.  An
    index whose midpoint rounds onto an end already counted (a lower end
    below its target, an upper end at or above it) would get that end's
    outcome on every later pass, so it leaves the loop; the loop ends when
    none is left.  While a pass has at most TWO_LEVEL_SHIFTS distinct
    midpoints, the same count also takes both midpoints the next pass could
    have, 0.5 (mid + up) and 0.5 (low + mid), and the sweep takes both
    halvings.  The second needs no settled-cell test: a midpoint on an end
    already counted gets that end's count again and moves nothing.  Above
    the cap the count's width, not its per-call cost, dominates, and a
    sweep makes one halving.  The result is that of all 60 passes over
    every index, to the last bit.
    """
    d = np.asarray(chain.onsite, dtype=float)
    b = np.asarray(chain.hopping, dtype=float)
    n = len(d)
    if n == 1:
        return EnergySpectrum(np.array([d[0] / 2.0]))
    b2 = b * b
    lo, hi = _gershgorin(d, b)
    span = max(hi - lo, 1e-30)
    lo -= 1e-12 * span
    hi += 1e-12 * span
    lower = np.full(n, lo)
    upper = np.full(n, hi)
    targets = np.arange(1, n + 1)
    active = np.arange(n)
    steps = 0
    while steps < BISECT_STEPS:
        low, up = lower[active], upper[active]
        mid = 0.5 * (low + up)
        # an end still at the widened Gershgorin bound was never counted
        moving = ~(((mid == low) & (low != lo)) | ((mid == up) & (up != hi)))
        active, low, up, mid = active[moving], low[moving], up[moving], mid[moving]
        if not len(active):
            break
        target = targets[active]
        shifts, at = np.unique(mid, return_inverse=True)
        two_level = len(shifts) <= TWO_LEVEL_SHIFTS and steps + 1 < BISECT_STEPS
        if two_level:
            above_mid, below_mid = 0.5 * (mid + up), 0.5 * (low + mid)
            shifts, at = np.unique(np.concatenate([mid, above_mid, below_mid]),
                                   return_inverse=True)
        counts = _sturm_count(d, b2, shifts)[at]
        k = len(active)
        below = counts[:k] < target
        low, up = np.where(below, mid, low), np.where(below, up, mid)
        if two_level:
            mid = np.where(below, above_mid, below_mid)
            below = np.where(below, counts[k:2 * k], counts[2 * k:]) < target
            low, up = np.where(below, mid, low), np.where(below, up, mid)
        lower[active], upper[active] = low, up
        steps += 2 if two_level else 1
    eigs = np.sort(0.5 * (lower + upper))
    return EnergySpectrum(0.5 * eigs)


def brute_force_eigs(chain: TightBindingChain) -> EnergySpectrum:
    """Characteristic-polynomial oracle for N <= 12.

    Roots of det(H - x) located by counting sign changes of the three-term
    recurrence p_k(x) and bisecting between the Gershgorin bounds; a solver
    independent of the LDL pivot route.
    """
    n = chain.size
    if n > ORACLE_MAX:
        raise SizeLimit(f"oracle limited to N <= {ORACLE_MAX}")
    d = [float(x) for x in chain.onsite]
    b = [float(x) for x in chain.hopping]

    def sign_changes(x: float) -> int:
        p_prev, p = 1.0, d[0] - x
        changes = 1 if p < 0 else 0
        last_sign = -1 if p < 0 else 1
        for k in range(1, n):
            p_next = (d[k] - x) * p - b[k - 1] ** 2 * p_prev
            p_prev, p = p, p_next
            sign = -last_sign if p == 0 else (1 if p > 0 else -1)
            if sign != last_sign:
                changes += 1
                last_sign = sign
        return changes

    lo, hi = _gershgorin(np.array(d), np.array(b))
    span = max(hi - lo, 1e-30)
    lo -= 1e-9 * span + 1e-12
    hi += 1e-9 * span + 1e-12
    eigs = []
    for k in range(1, n + 1):
        a, c = lo, hi
        for _ in range(100):
            m = 0.5 * (a + c)
            if sign_changes(m) < k:
                a = m
            else:
                c = m
        eigs.append(0.5 * (a + c))
    return EnergySpectrum(0.5 * np.sort(np.array(eigs)))


def counting_function(spectrum: EnergySpectrum, e: float) -> float:
    """Fraction of eigenvalues at most e (right-continuous step function)."""
    return float(np.searchsorted(spectrum.eigenvalues, e, side="right")) / spectrum.size


def _wide_spacings(eigs: np.ndarray, rel_threshold: float) -> list[int]:
    """Indices i of the spacings eigs[i + 1] - eigs[i] above rel_threshold (> 0)
    times the median spacing, in increasing order."""
    if not rel_threshold > 0:
        raise ValueError(f"rel_threshold must be positive, got {rel_threshold}")
    if len(eigs) < 16:
        raise ValueError("need at least 16 eigenvalues")
    diffs = np.diff(eigs)
    return np.flatnonzero(diffs > rel_threshold * float(np.median(diffs))).tolist()


def detect_gaps(spectrum: EnergySpectrum, rel_threshold: float = 10.0) -> list[Gap]:
    """Maximal spacings above rel_threshold (> 0) times the median spacing.

    The counting function is constant on each gap; its value i/N is the gap
    label input.
    """
    eigs = spectrum.eigenvalues
    n = len(eigs)
    return [Gap(float(eigs[i]), float(eigs[i + 1]), float(eigs[i + 1] - eigs[i]), (i + 1) / n)
            for i in _wide_spacings(eigs, rel_threshold)]


def bulk_gaps(spectrum: EnergySpectrum, rel_threshold: float = 10.0) -> list[Gap]:
    """Gaps with free-boundary edge modes merged away.

    A free chain hosts up to one boundary state per end inside a bulk gap,
    splitting it into several detected pieces separated by single stray
    eigenvalues.  Pieces separated by at most MAX_STRAYS eigenvalues are
    merged; the strays are shared evenly between the spectrum below and
    above (spectral flow peels one state per edge), so the merged counting
    value is ((i_first + i_last)/2 + 1)/N.
    """
    eigs = spectrum.eigenvalues
    n = len(eigs)
    runs: list[list[int]] = []  # [first, last] wide spacing of each merged run
    for i in _wide_spacings(eigs, rel_threshold):
        if runs and i - runs[-1][1] <= MAX_STRAYS:
            runs[-1][1] = i
        else:
            runs.append([i, i])
    out = []
    for first, last in runs:
        lower, upper = float(eigs[first]), float(eigs[last + 1])
        out.append(Gap(lower, upper, upper - lower, ((first + last) / 2 + 1) / n))
    return out
