"""Tight-binding chains on words and their eigenvalue spectra.

The Hamiltonian acts as (H phi)_n = t_{n-1,n} phi_{n-1} + t_{n,n+1} phi_{n+1}
+ v_n phi_n with free ends, and the eigenproblem is read as H phi = 2 e phi,
so all reported energies are halved matrix eigenvalues.  The production
solver gives every eigenvalue of the plain 60-halving Sturm bisection to the
last bit, in far fewer passes of LDL pivot sign counts, each vectorised over
its shifts and taken over blocks of sites at once.  Each index keeps a
bracket (A, B), the tightest shifts counted with count(A) < k <= count(B).
The IEEE Sturm count is monotone in x (Demmel, Dhillon & Ren, ETNA 3, 1995),
so a bisection midpoint outside the bracket is decided with no count, and
only the midpoints inside it are counted (once per distinct midpoint, with
as many halvings per sweep as fit under TWO_LEVEL_SHIFTS).  A bracket that
holds only its own eigenvalue (isolation) shrinks by safeguarded Newton
steps, the slope sum taken in the same pivot loop; a converged iterate is
certified by counting just either side of it, and the finishing halvings
count only the midpoints inside that tight bracket.  The Sturm count also
takes a windows axis, several chains of one length counted at the same
shifts in one call.  An independent characteristic-polynomial oracle covers
small sizes for cross-checks.  Where only the integrated density of states
at a few energies is needed, as for the hull-averaged gap labels in
`report`, a Sturm count at those energies gives it without a full spectrum.
Gaps are a spectrum's wide spacings, found by one scan: detect_gaps reports
each as it is, bulk_gaps merges pieces split by <= MAX_STRAYS boundary levels.
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
NEWTON_STEPS = 12  # most Newton passes of an isolated index before it goes on halving
CERTIFY_EPS = 0.5  # certification offset, in eps * the larger Gershgorin bound
NEWTON_TOL = 1024  # a Newton step under NEWTON_TOL offsets ends the Newton passes
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


def _sturm_count(d: np.ndarray, b2: np.ndarray, xs: np.ndarray, slope: bool | int = False):
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

    In IEEE arithmetic the count of this recurrence is monotone in x: it
    never falls as x grows (Demmel, Dhillon & Ren, ETNA 3, 1995; the tests
    check it at floating-point neighbours and exact zero pivots).
    eigenvalues_tridiag rests its count-free halvings on this.

    With slope=True, or slope=m for the first m shifts, the same loop also
    sums r_i = q_i'/q_i = d/dx log|q_i|, and (count, sums) is returned: the
    sum is d/dx log|det(T - x)| = sum_j 1/(x - lambda_j), so x - 1/sum is a
    Newton step on the determinant.  The pivot loop stores its quotients
    b_{i-1}^2/q_{i-1}; per block, r_i = (b_{i-1}^2/q_{i-1})/q_i * r_{i-1} -
    1/q_i takes two operations a site after two divisions over the block.
    The counts are those without slope to the bit.
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
    carry, size = np.ones(shape), np.empty(shape)
    quots = np.empty_like(block)
    tiny = np.empty(shape, dtype=bool)
    block_count = np.empty(shape, dtype=np.uint8)
    count = np.zeros(shape, dtype=np.int64)
    # slope sums over the first `lead` shifts
    lead = xs.shape[-1] if slope is True else int(slope)
    ratios, offsets = np.empty((2, len(block), *shape[:-1], lead))
    ratio_carry, total = np.zeros(ratios.shape[1:]), np.zeros(ratios.shape[1:])
    with np.errstate(all="ignore"):  # unguarded zero pivots divide by zero
        for start in range(0, n, STURM_BLOCK):
            stop = min(start + STURM_BLOCK, n)
            rows = block[:stop - start]
            for guard in (False, True):
                np.subtract(d[start:stop, ..., None], xs, out=rows)
                prev = carry
                for c, row, quot in zip(coeffs[start:stop], rows, quots):
                    np.divide(c, prev, out=quot)
                    np.subtract(row, quot, out=row)
                    if guard:
                        np.less(np.abs(row, out=size), PIVMIN, out=tiny)
                        np.copyto(row, -PIVMIN, where=tiny)
                    prev = row
                smallest = np.fmin.reduce(np.abs(rows, out=mag[:len(rows)]),
                                          axis=None, initial=np.inf)
                if guard or not smallest < PIVMIN:
                    break
            signs = np.less(rows, 0.0, out=negative[:len(rows)]).view(np.uint8)
            count += np.add.reduce(signs, axis=0, dtype=np.uint8, out=block_count)
            np.copyto(carry, rows[-1])
            if lead:
                pivots, gain = rows[..., :lead], ratios[:len(rows)]
                offset = offsets[:len(rows)]
                np.divide(quots[:len(rows), ..., :lead], pivots, out=gain)
                np.divide(-1.0, pivots, out=offset)
                prev = ratio_carry
                for ratio, add in zip(gain, offset):
                    np.multiply(ratio, prev, out=ratio)
                    np.add(ratio, add, out=ratio)
                    prev = ratio
                total += np.add.reduce(gain, axis=0)
                np.copyto(ratio_carry, gain[-1])
    return (count, total) if slope is not False else count


def _descend(path, low, up, steps, bracket, end_counts, targets, shifts, counts):
    """Walk each path index down the plain bisection while its bracket decides.

    A midpoint counted in this pass first tightens the bracket.  Then a
    midpoint at or below the bracket's lower end goes up and one at or
    above its upper end goes down, as its count would (the count is monotone
    in x).  Returns the indices left to halve, each with its next midpoint
    strictly inside its bracket and not yet counted.
    """
    l, u, s = low[path], up[path], steps[path]
    walking, looking = np.arange(len(path)), len(shifts) > 0
    while len(walking):
        own, lw, uw = path[walking], l[walking], u[walking]
        mid = 0.5 * (lw + uw)
        if looking:  # the levels this pass counted come first
            pos = np.minimum(np.searchsorted(shifts, mid), len(shifts) - 1)
            hit = shifts[pos] == mid
            _tighten(own[hit], mid[hit], counts[pos[hit]], bracket, end_counts, targets)
            looking = hit.any()
        below, above = mid <= bracket[0, own], mid >= bracket[1, own]
        # a midpoint rounded onto an end moves nothing on any later pass
        move = (mid != lw) & (mid != uw) & (s[walking] < BISECT_STEPS) & (below | above)
        walking, mid, below = walking[move], mid[move], below[move]
        l[walking] = np.where(below, mid, l[walking])
        u[walking] = np.where(below, u[walking], mid)
        s[walking] += 1
    low[path], up[path], steps[path] = l, u, s
    mid = 0.5 * (l + u)
    # a non-finite chain gives NaN midpoints, inside no bracket, as the plain
    # bisection gives NaN eigenvalues
    inside = (bracket[0, path] < mid) & (mid < bracket[1, path])
    return path[inside & (mid != l) & (mid != u) & (s < BISECT_STEPS)]


def _subtree_mids(low, up, steps, bracket):
    """Midpoints of the next halvings of each cell that fall inside its bracket.

    Breadth first over the plain bisection tree below each distinct cell; a
    midpoint outside the bracket is decided without a count and only its
    reachable half is followed.  The sweep takes another level while the
    midpoints taken so far number at most TWO_LEVEL_SHIFTS.
    """
    _, first = np.unique(0.5 * (low + up), return_index=True)
    low, up, steps, ends = low[first], up[first], steps[first], bracket[:, first]
    taken, total = [np.empty(0)], 0
    while len(low) and (len(taken) == 1 or total <= TWO_LEVEL_SHIFTS):
        mid = 0.5 * (low + up)
        live = (mid != low) & (mid != up) & (steps < BISECT_STEPS)
        inside = live & (ends[0] < mid) & (mid < ends[1])
        taken.append(mid[inside])
        total += int(inside.sum())
        left, right = live & (mid > ends[0]), live & (mid < ends[1])
        low = np.concatenate([low[left], mid[right]])
        up = np.concatenate([mid[left], up[right]])
        steps = np.concatenate([steps[left], steps[right]]) + 1
        ends = np.concatenate([ends[:, left], ends[:, right]], axis=1)
    return np.concatenate(taken)


def eigenvalues_tridiag(chain: TightBindingChain) -> EnergySpectrum:
    """All halved eigenvalues, to the last bit those of the plain bisection.

    The plain bisection halves the widened Gershgorin interval 60 times for
    each index k, going up where the Sturm count at the midpoint is below k.
    Here each index also keeps a bracket (A, B), the tightest shifts counted
    with count(A) < k <= count(B).  The IEEE Sturm count is monotone in x
    (Demmel, Dhillon & Ren, ETNA 3, 1995), so a midpoint at or below A goes
    up and one at or above B goes down with no count; only midpoints inside
    (A, B) are counted, with as many halvings per sweep as fit under
    TWO_LEVEL_SHIFTS.  While brackets are whole cells this is the plain
    lockstep bisection with shared shifts.  Once a bracket holds only its own
    eigenvalue (count(A) = k - 1, count(B) = k) it is isolated and shrinks by
    safeguarded Newton steps x - 1 / sum_i q_i'/q_i instead, each iterate
    counted so that it tightens (A, B); a step that leaves the bracket or
    falls short of halving the one before is a bisection of (A, B).  A
    converged iterate x is certified by counting at x -/+ delta in the next
    pass, which makes (A, B) a few ulps wide, and the finishing halvings
    count only the few midpoints inside it.  An index still unconverged
    after NEWTON_STEPS passes, or whose certification fails (a bracket
    tightened on one side only), goes on by halvings from the bracket it
    has.  Every pass is one _sturm_count call over all shifts, with the
    slope at the Newton iterates only.
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
    delta = CERTIFY_EPS * np.finfo(float).eps * max(abs(lo), abs(hi))
    targets = np.arange(1, n + 1)
    # the plain bisection's cell of each index and the halvings it has made
    low, up, steps = np.full(n, lo), np.full(n, hi), np.zeros(n, dtype=np.int64)
    # the bracket (A, B) and the counts at its ends; the widened Gershgorin
    # bounds count 0 and n
    bracket = np.array([low, up])
    end_counts = np.array([np.zeros(n, dtype=np.int64), np.full(n, n)])
    x, last_step = np.empty(n), np.full(n, np.inf)
    tries, untried = np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool)
    path, newton, certify = np.arange(n), np.arange(0), np.arange(0)
    shifts, counts = np.empty(0), np.empty(0, dtype=np.int64)
    while True:
        path = _descend(path, low, up, steps, bracket, end_counts, targets, shifts, counts)
        alone = (untried[path] & (end_counts[0, path] == targets[path] - 1)
                 & (end_counts[1, path] == targets[path]))
        isolated, path = path[alone], path[~alone]
        untried[isolated] = False
        x[isolated] = 0.5 * (bracket[0, isolated] + bracket[1, isolated])
        newton = np.concatenate([newton, isolated])
        if not (len(path) or len(newton) or len(certify)):
            break
        owner = np.concatenate([certify, certify])
        probes = np.concatenate([x[certify] - delta, x[certify] + delta])
        inside = (bracket[0, owner] < probes) & (probes < bracket[1, owner])
        owner, probes = owner[inside], probes[inside]
        shifts = np.unique(np.concatenate([
            _subtree_mids(low[path], up[path], steps[path], bracket[:, path]), probes]))
        k = len(newton)
        counts, slopes = _sturm_count(d, b2, np.concatenate([x[newton], shifts]), slope=k)
        newton_counts, counts = counts[:k], counts[k:]
        _tighten(owner, probes, counts[np.searchsorted(shifts, probes)], bracket,
                 end_counts, targets)
        _tighten(newton, x[newton], newton_counts, bracket, end_counts, targets)
        done, lost = _newton_step(newton, slopes, x, last_step, tries, bracket, delta)
        path = np.concatenate([path, certify, newton[lost]])
        certify, newton = newton[done], newton[~done & ~lost]
    return EnergySpectrum(0.5 * np.sort(0.5 * (low + up)))


def _tighten(owner, xs, count, bracket, end_counts, targets):
    """Move each owner's bracket end to its counted shift xs where xs lies inside."""
    side = (count >= targets[owner]).astype(np.int64)
    inside = (bracket[0, owner] < xs) & (xs < bracket[1, owner])
    bracket[side[inside], owner[inside]] = xs[inside]
    end_counts[side[inside], owner[inside]] = count[inside]


def _newton_step(newton, slopes, x, last_step, tries, bracket, delta):
    """Advance the Newton iterates x[newton] in place from their slope sums.

    A step leaving the bracket or not under half the step before (a
    cluster's slow approach) is replaced by the bracket's midpoint.  A step
    under NEWTON_TOL * delta whose quadratic error estimate |step|^3 /
    last_step^2 is under delta / 4 converges: its iterate, clipped into the
    bracket (a step that rounds out of it lands next to an end), is the one
    to certify.  Returns the masks of the converged indices and of those
    that go on by halvings (out of passes, or a bracket without interior).
    """
    with np.errstate(all="ignore"):  # a zero or non-finite slope sum
        step = -1.0 / slopes
        size, before = np.abs(step), last_step[newton]
        done = ((size <= NEWTON_TOL * delta) & (size ** 3 <= 0.25 * delta * before ** 2)
                & (before < np.inf))
    ends = bracket[:, newton]
    guess = x[newton] + step
    newton_ok = (ends[0] < guess) & (guess < ends[1]) & (size <= 0.5 * before)
    guess = np.where(done, np.clip(guess, ends[0], ends[1]),
                     np.where(newton_ok, guess, 0.5 * (ends[0] + ends[1])))
    x[newton] = guess
    last_step[newton] = np.where(newton_ok, size, np.inf)
    tries[newton] += 1
    interior = (ends[0] < guess) & (guess < ends[1])
    return done, ~done & (~interior | (tries[newton] >= NEWTON_STEPS))


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
