"""Tight-binding chains on words and their eigenvalue spectra.

The Hamiltonian acts as (H phi)_n = t_{n-1,n} phi_{n-1} + t_{n,n+1} phi_{n+1}
+ v_n phi_n with free ends, and the eigenproblem is read as H phi = 2 e phi,
so all reported energies are halved matrix eigenvalues.  The production
solver is Sturm-sequence bisection (LDL pivot sign counts, vectorised over
all eigenvalue indices at once); an independent characteristic-polynomial
oracle covers small sizes for cross-checks.  Where only the integrated
density of states at a few energies is needed, as for the hull-averaged gap
labels in `report`, a Sturm count at those energies gives it without a full
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeLimit

ORACLE_MAX = 12
PIVMIN = 1e-280
BISECT_STEPS = 60


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
    the number of negative pivots.  Vectorised over the array of shifts.
    """
    q = d[0] - xs
    q = np.where(np.abs(q) < PIVMIN, -PIVMIN, q)  # zero pivots count as below
    count = (q < 0).astype(np.int64)
    for i in range(1, len(d)):
        q = (d[i] - xs) - b2[i - 1] / q
        q = np.where(np.abs(q) < PIVMIN, -PIVMIN, q)
        count += q < 0
    return count


def eigenvalues_tridiag(chain: TightBindingChain) -> EnergySpectrum:
    """All halved eigenvalues by bisection on the Sturm counts.

    Every index is bisected in lockstep; 60 fixed halvings of the Gershgorin
    interval put each eigenvalue within ~1e-16 of the spectral span,
    deterministically.
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
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lower + upper)
        counts = _sturm_count(d, b2, mid)
        below = counts < targets
        lower = np.where(below, mid, lower)
        upper = np.where(below, upper, mid)
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


def detect_gaps(spectrum: EnergySpectrum, rel_threshold: float = 10.0) -> list[Gap]:
    """Maximal spacings above rel_threshold (> 0) times the median spacing.

    The counting function is constant on each gap; its value i/N is the gap
    label input.
    """
    if not rel_threshold > 0:
        raise ValueError(f"rel_threshold must be positive, got {rel_threshold}")
    eigs = spectrum.eigenvalues
    n = len(eigs)
    if n < 16:
        raise ValueError("need at least 16 eigenvalues")
    diffs = np.diff(eigs)
    median = float(np.median(diffs))
    gaps = []
    for i, width in enumerate(diffs):
        if width > rel_threshold * median:
            gaps.append(Gap(float(eigs[i]), float(eigs[i + 1]), float(width),
                            (i + 1) / n))
    return gaps


def bulk_gaps(spectrum: EnergySpectrum, rel_threshold: float = 10.0,
              max_strays: int = 2) -> list[Gap]:
    """Gaps with free-boundary edge modes merged away.

    A free chain hosts up to one boundary state per end inside a bulk gap,
    splitting it into several detected pieces separated by single stray
    eigenvalues.  Pieces separated by at most max_strays eigenvalues are
    merged; the strays are shared evenly between the spectrum below and
    above (spectral flow peels one state per edge), so the merged counting
    value is ((i_first + i_last)/2 + 1)/N.
    """
    eigs = spectrum.eigenvalues
    n = len(eigs)
    raw = detect_gaps(spectrum, rel_threshold)
    if not raw:
        return []
    indices = [round(g.ids_value * n) - 1 for g in raw]
    merged = []
    run = [0]
    for t in range(1, len(raw)):
        if indices[t] - indices[run[-1]] <= max_strays:
            run.append(t)
        else:
            merged.append(run)
            run = [t]
    merged.append(run)
    out = []
    for run in merged:
        i_first, i_last = indices[run[0]], indices[run[-1]]
        lower = raw[run[0]].lower
        upper = raw[run[-1]].upper
        ids = ((i_first + i_last) / 2 + 1) / n
        out.append(Gap(lower, upper, upper - lower, ids))
    return out
