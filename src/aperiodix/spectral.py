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
only the midpoints inside it are counted, once each.  A bracket that holds
only its own eigenvalue (isolation) shrinks by safeguarded Newton steps,
the slope sum taken in the same pivot loop, and a cluster's slow geometric
approach is cut short by summing its series.  An iterate stops one
evaluation early, once its quadratic rate puts the next step under the
certification offset; the pass after its last step counts just either side
of it and, on the same bet, the halvings aimed at it inside that window, so
a certified index finishes with no further pass.  One tree walk plans every
pass (_mids): past a counted midpoint it follows both halves, or only the
half toward its aim.  A zero diagonal (the hopping model) makes the pivots
at -x those at x negated, so such a chain counts each pair of shifts +-x
once and counts again, in the same call, the few whose mirror met the
PIVMIN guard (_sturm_count).  An independent characteristic-polynomial
oracle covers small sizes for cross-checks.

Chains of a substitution need no spectrum for their gaps.  lifted_counts
counts levels from the transfer matrices of the supertiles sigma^n(c),
lifted to the universal cover of their action on angles and composed along
the rule, so a count costs the order times the image letters per shift,
whatever the word's length.  It gives the free chain's Sturm count and, in
a gap, the count j per period of the periodic approximant with period word
sigma^n(a), whose integrated density of states there is exactly j/N;
`report` scans it for the gaps of every rule-backed chain.  The full
eigen-solve serves `spectrum`, spectrum files and chains with no rule, whose
gaps are a spectrum's wide spacings, found by one scan: detect_gaps reports
each as it is, bulk_gaps merges pieces split by <= MAX_STRAYS boundary
levels (free chains host edge modes in their gaps).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LengthLimit, SizeLimit
from .substitution import SubstitutionRule, length_cap

ORACLE_MAX = 12
PIVMIN = 1e-280
BISECT_STEPS = 60
STURM_BLOCK = 16  # sites per block of pivots; 8x at most 255 (uint8 block counts)
BLOCK_PIVOTS = 65536  # most pivots in a block of a narrow pass, of up to 8 STURM_BLOCK sites
TWO_LEVEL_SHIFTS = 1536  # most distinct midpoints a pass takes two halvings for
ROW_SLOPES = 2048  # from this many slope shifts on, each row of slopes takes its own division
NEWTON_STEPS = 12  # Newton passes after which an iterate not halving its step goes on halving
SPARE_SHIFTS = 255  # shifts that cost a pass little beside its site loop
CERTIFY_EPS = 0.5  # certification offset, in eps * the larger Gershgorin bound
MAX_STRAYS = 2  # most stray levels between two detected pieces of one bulk gap
LIFT_CHUNK = 4096  # shifts per pass of the lifted count (bounds its arrays)
INTEGER_TOL = 1e-6  # most distance of a certified approximant count from an integer
EXP_LIMIT = float(np.log(np.finfo(float).max))  # the largest x whose exp(x) is finite


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
    values = _tile_values(set(word), model)
    v_seq = np.array([values[c] for c in word], dtype=float)
    if isinstance(model, OnsiteModel):
        return TightBindingChain(v_seq, np.ones(len(word) - 1))
    t = np.exp(-0.5 * model.eps**2 * (v_seq[:-1] + v_seq[1:]))
    return TightBindingChain(np.zeros(len(word)), t)


def _tile_values(tiles, model) -> dict[str, float]:
    """The value v of each tile a word holds: v_a and v_b in sorted order.

    Refuses a third tile, a model that is neither OnsiteModel nor
    HoppingModel, site energies whose Gershgorin span 2 (max |v| + 2)
    overflows, and a hopping model whose squared bonds
    exp(-eps^2 (v + v')), or their inverses, overflow: eps^2 must be finite
    and 2 eps^2 |v| within EXP_LIMIT.
    """
    tiles = sorted(tiles)
    if len(tiles) > 2:
        raise ValueError("word must use at most two letters (project tiles first)")
    if not isinstance(model, (OnsiteModel, HoppingModel)):
        raise TypeError(f"unknown model {model!r}")
    values = dict(zip(tiles, (model.v_a, model.v_b)))
    largest = max(abs(v) for v in values.values())
    if isinstance(model, OnsiteModel):
        span = 2.0 * (largest + 2.0)
        if not np.isfinite(span):
            raise ValueError(f"site energies overflow: 2 (max |v| + 2) = {span:.6g} "
                             "is not finite")
    else:
        # a product, not eps**2: the power raises OverflowError past |eps| ~ 1.34e154
        square = model.eps * model.eps
        if not np.isfinite(square):
            raise ValueError(f"hopping model overflows: eps^2 is not finite at eps = "
                             f"{model.eps:.6g}")
        exponent = 2.0 * square * largest
        if not exponent <= EXP_LIMIT:
            raise ValueError(f"hopping model overflows exp: 2 eps^2 |v| = {exponent:.6g} "
                             f"exceeds {EXP_LIMIT:.6g}")
    return values


def _gershgorin(d: np.ndarray, b: np.ndarray) -> tuple[float, float]:
    n = len(d)
    radius = np.zeros(n)
    if n > 1:
        radius[:-1] += np.abs(b)
        radius[1:] += np.abs(b)
    return float(np.min(d - radius)), float(np.max(d + radius))


def _block_height(width: int) -> int:
    """Sites per block of a pass over width shifts: STURM_BLOCK, and up to
    eight times that in a narrow pass, whose block stays small and whose
    per-block calls are then spread over more sites."""
    return min(8 * STURM_BLOCK, max(STURM_BLOCK, BLOCK_PIVOTS // max(width, 1)))


def _sturm_count(d: np.ndarray, b2: np.ndarray, xs: np.ndarray, slope: bool | int = False):
    """Number of eigenvalues of the tridiagonal matrix strictly below each x.

    LDL pivot recurrence q_i = (d_i - x) - b_{i-1}^2 / q_{i-1}; the count is
    the number of negative pivots, and a pivot smaller than PIVMIN in size is
    taken as -PIVMIN (zero pivots count as below, as in LAPACK dstebz).
    _pivot_counts runs the recurrence over blocks of sites, vectorised over
    the shifts, and each shift's count is the same to the bit however the
    shifts are grouped.

    In IEEE arithmetic the count of this recurrence is monotone in x: it
    never falls as x grows (Demmel, Dhillon & Ren, ETNA 3, 1995; the tests
    check it at floating-point neighbours and exact zero pivots).
    eigenvalues_tridiag rests its count-free halvings on this.

    With slope=True, or slope=m for the first m shifts, the same loop also
    sums r_i = q_i'/q_i = d/dx log|q_i|, and (count, sums) is returned: the
    sum is d/dx log|det(T - x)| = sum_j 1/(x - lambda_j), so x - 1/sum is a
    Newton step on the determinant.  A sum may move in its last bits with the
    number of slope shifts in its pass.  Where a pivot vanished (the guard's
    -PIVMIN) only the count is exact: on a level the sum is huge, or NaN once
    a later site overflows, but where a middle pivot vanished off any level
    the sum may be finite, wrong and change with the shifts beside it.  The
    counts are those without slope to the bit.

    A zero diagonal (the hopping model) makes the chain bipartite, and the
    pivots at -x are exactly those at x negated: 0 - x and the quotients
    b^2 / q change sign with x, and IEEE rounding commutes with negation.  So
    count(x) = n - count(-x), and the slope sum at x is the one at -x
    negated, wherever no pivot fell under PIVMIN; the solver's shifts come in
    nearly exact +- pairs, as its Gershgorin interval is symmetric.  Such a
    chain counts each pair once: its shifts fold to -|x|, the ones with slope
    sums first, and are counted in one loop, then unfold.  The guard breaks
    the mirror (a guarded pivot is -PIVMIN at x and at -x), so an x > 0 whose
    mirror met it is counted again as it is, in the same call.  x = 0.0 reads
    the count at -0.0, which is its own to the bit: the first pivot is a zero
    at both, guarded, and the pivots after it agree.  NaN shifts fold to
    NaN, and chains with non-finite bonds are counted as they are.
    """
    d = np.asarray(d, dtype=float)
    b2 = np.asarray(b2, dtype=float)
    xs = np.asarray(xs, dtype=float)
    lead = xs.shape[-1] if slope is True else int(slope)
    if d.any() or not np.isfinite(b2).all():
        count, total, _ = _pivot_counts(d, b2, xs, lead)
        return (count, total) if slope is not False else count
    keys, owner = np.unique(-np.abs(xs), return_inverse=True)
    sloped = np.zeros(len(keys), dtype=bool)
    sloped[owner[:lead]] = True
    order = np.argsort(~sloped, kind="stable")  # the keys with slope sums first
    owner = np.argsort(order)[owner]
    count, total, met = _pivot_counts(d, b2, keys[order], np.count_nonzero(sloped))
    mirror = xs > 0.0
    count = np.where(mirror, len(d) - count[owner], count[owner])
    total = np.where(mirror[:lead], -total[owner[:lead]], total[owner[:lead]])
    again = np.flatnonzero(mirror & met[owner])
    if len(again):
        ahead = np.count_nonzero(again < lead)
        count[again], sums, _ = _pivot_counts(d, b2, xs[again], ahead)
        total[again[:ahead]] = sums
    return (count, total) if slope is not False else count


def _pivot_counts(d: np.ndarray, b2: np.ndarray, xs: np.ndarray, lead: int):
    """_sturm_count's pivot loop: (counts, slope sums of the first lead
    shifts, the shifts that met the guard).

    Vectorised over the shifts and blocked over sites: one 2-D subtraction
    fills a block of rows with d_i - x, each row is then divided and
    subtracted in place, and the block's negative pivots are counted at once;
    a copy of its last row carries the recurrence into the next block.  A
    block is STURM_BLOCK rows, and up to eight times that while it holds at
    most BLOCK_PIVOTS pivots (_block_height): a narrow pass then makes fewer
    calls a site, about a fifth less time for a few hundred shifts.
    A block runs without the guard first and again with it, site by site,
    only if it met a pivot below PIVMIN in size; a block that met none is
    what the guarded recurrence gives.  The sign count finds such pivots:
    q < PIVMIN and q <= -PIVMIN hold together except where |q| < PIVMIN, so
    the block is run again only where its totals of the two differ, and the
    count is its pivots at or below -PIVMIN (a guarded pivot is -PIVMIN).
    Every operation is elementwise, so each shift's count is the same to
    the bit however the shifts are grouped.  The guarded run marks the
    shifts that met a pivot under PIVMIN.

    The pivot loop stores its quotients quot_i = b_{i-1}^2/q_{i-1}, and the
    slope term r_i = (quot_i * r_{i-1} - 1) / q_i takes one division a site.
    From ROW_SLOPES slope shifts on, each row divides on its own, three calls
    a site on a row that stays in cache; below, the block's 1/q_i are taken
    at once and r_i = (quot_i / q_i) r_{i-1} - 1/q_i costs two calls a site.
    On the passes of an N=4000 solve the row form is the faster from about
    1,700 slope shifts on (0.85-0.96x at 2,100 to 4,000) and the block form
    below about 1,100 (a 2-core Xeon, numpy 2.4).  The two agree to rounding.
    """
    n = len(d)
    shape = xs.shape
    coeffs = [0.0, *b2.tolist()]  # q_0 = (d_0 - x) - 0 / 1
    height = _block_height(xs.size)
    block = np.empty((min(height, n), *shape))
    signs = np.empty(block.shape, dtype=bool)
    carry, size = np.ones(shape), np.empty(shape)
    quots = np.empty_like(block)
    tiny, met = np.empty(shape, dtype=bool), np.zeros(shape, dtype=bool)
    negative = np.empty(shape, dtype=np.uint8)
    count = np.zeros(shape, dtype=np.int64)
    # slope sums over the first `lead` shifts
    ratios, inverses = np.empty((2, len(block), lead))
    ratio_carry, total = np.zeros(lead), np.zeros(lead)
    with np.errstate(all="ignore"):  # unguarded zero pivots divide by zero
        for start in range(0, n, height):
            stop = min(start + height, n)
            rows, sign = block[:stop - start], signs[:stop - start]
            for guard in (False, True):
                np.subtract(d[start:stop, None], xs, out=rows)
                prev = carry
                for c, row, quot in zip(coeffs[start:stop], rows, quots):
                    np.divide(c, prev, out=quot)
                    np.subtract(row, quot, out=row)
                    if guard:
                        np.less(np.abs(row, out=size), PIVMIN, out=tiny)
                        np.copyto(row, -PIVMIN, where=tiny)
                        np.logical_or(met, tiny, out=met)
                    prev = row
                # q < PIVMIN and q <= -PIVMIN differ exactly on |q| < PIVMIN
                below = np.count_nonzero(np.less(rows, PIVMIN, out=sign))
                np.less_equal(rows, -PIVMIN, out=sign)
                if guard or below == np.count_nonzero(sign):
                    break
            count += np.add.reduce(sign.view(np.uint8), axis=0, dtype=np.uint8, out=negative)
            np.copyto(carry, rows[-1])
            if lead:
                prev = ratio_carry
                if lead >= ROW_SLOPES:
                    for quot, row, ratio in zip(quots, rows, ratios):
                        np.multiply(quot[:lead], prev, out=ratio)
                        np.subtract(ratio, 1.0, out=ratio)
                        np.divide(ratio, row[:lead], out=ratio)
                        prev = ratio
                else:
                    inverse = inverses[:len(rows)]
                    np.divide(1.0, rows[:, :lead], out=inverse)
                    np.multiply(quots[:len(rows), :lead], inverse, out=ratios[:len(rows)])
                    for ratio, inv in zip(ratios, inverse):
                        np.multiply(ratio, prev, out=ratio)
                        np.subtract(ratio, inv, out=ratio)
                        prev = ratio
                total += np.add.reduce(ratios[:len(rows)], axis=0)
                np.copyto(ratio_carry, prev)
    return count, total, met


def _descend(path, low, up, steps, bracket, end_counts, targets, shifts, counts):
    """Walk each path index down the plain bisection while its bracket decides.

    A midpoint counted in this pass first tightens the bracket.  Then a
    midpoint at or below the bracket's lower end goes up and one at or
    above its upper end goes down, as its count would (the count is monotone
    in x).  Returns the indices left to halve, each with its next midpoint
    strictly inside its bracket and not yet counted.
    """
    l, u, s = low[path], up[path], steps[path]
    walking = np.arange(len(path))
    while len(walking):
        own, lw, uw = path[walking], l[walking], u[walking]
        mid = 0.5 * (lw + uw)
        # a midpoint inside the bracket may have been counted in this pass
        at = np.flatnonzero((bracket[0, own] < mid) & (mid < bracket[1, own]))
        if len(at) and len(shifts):
            pos = np.minimum(np.searchsorted(shifts, mid[at]), len(shifts) - 1)
            hit = shifts[pos] == mid[at]
            at, pos = at[hit], pos[hit]
            _tighten(own[at], mid[at], counts[pos], bracket, end_counts, targets)
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


def _mids(low, up, steps, ends, aim, cap=np.inf):
    """Midpoints of the plain bisection below each cell that fall inside its ends.

    First the halvings the ends decide, all cells in step with no count: a
    midpoint at or below ends[0] goes up, one at or above ends[1] goes down.
    The cells reached are the entry cells.  Then breadth first: a midpoint
    strictly inside the ends is taken, and the walk follows both its halves
    where aim is NaN and otherwise the half toward aim (down where aim is at
    or below it); a midpoint outside the ends keeps only its reachable half.
    The walk takes another level while the midpoints taken number at most
    cap.  Returns the entry cells (low, up, steps) and the midpoints taken.
    """
    low, up, steps = low.copy(), up.copy(), steps.copy()
    while True:
        mid = 0.5 * (low + up)
        below, above = mid <= ends[0], mid >= ends[1]
        move = (below | above) & (mid != low) & (mid != up) & (steps < BISECT_STEPS)
        if not move.any():
            break
        np.copyto(low, mid, where=move & below)
        np.copyto(up, mid, where=move & above)
        steps += move
    entry, taken = np.array([low, up, steps], dtype=float), [np.empty(0)]
    aim = np.broadcast_to(aim, low.shape)
    while len(low) and (len(taken) == 1 or sum(map(len, taken)) <= cap):
        mid = 0.5 * (low + up)
        live = (mid != low) & (mid != up) & (steps < BISECT_STEPS)
        inside = live & (ends[0] < mid) & (mid < ends[1])
        taken.append(mid[inside])
        down = np.where(inside, aim <= mid, mid >= ends[1])
        left, right = live & (down | inside & np.isnan(aim)), live & ~down
        low = np.concatenate([low[left], mid[right]])
        up = np.concatenate([mid[left], up[right]])
        steps = np.concatenate([steps[left], steps[right]]) + 1
        ends = np.concatenate([ends[:, left], ends[:, right]], axis=1)
        aim = np.concatenate([aim[left], aim[right]])
    return entry, np.concatenate(taken)


def eigenvalues_tridiag(chain: TightBindingChain) -> EnergySpectrum:
    """All halved eigenvalues, to the last bit those of the plain bisection.

    The plain bisection halves the widened Gershgorin interval 60 times for
    each index k, going up where the Sturm count at the midpoint is below k.
    Here each index also keeps a bracket (A, B), the tightest shifts counted
    with count(A) < k <= count(B).  The IEEE Sturm count is monotone in x
    (Demmel, Dhillon & Ren, ETNA 3, 1995), so a midpoint at or below A goes
    up and one at or above B goes down with no count; only midpoints inside
    (A, B) are counted.  While brackets are whole cells this is the plain
    lockstep bisection with shared shifts.  Once a bracket holds only its own
    eigenvalue (count(A) = k - 1, count(B) = k) it is isolated and shrinks by
    safeguarded Newton steps x - 1 / sum_i q_i'/q_i instead, each iterate
    counted so that it tightens (A, B).  A step short of half the one before
    is a cluster's geometric approach and takes the whole series
    (_newton_step); a step that leaves the bracket or does not shrink is a
    bisection of (A, B).

    An iterate converges on a level (a vanished pivot), once its Newton step
    is under delta, or one evaluation earlier, once the quadratic rate of its
    last two steps puts the next one under delta: its Newton iterate x is then
    final.  The next pass counts x -/+ delta, the certification, and in the
    same call the halvings inside that window: from the index's cell the
    window's ends decide every halving down to the window, and inside it the
    path is aimed at x.  A certified index, its bracket inside the window,
    jumps to its cell at the window and finishes its halvings from the counts
    already made; one whose path parted from the aim inside the window goes
    on aimed at x in the next pass.  A predicted iterate whose certification
    fails resumes its Newton steps delta past the probe that failed, while it
    has spent fewer than NEWTON_STEPS passes; a converged one whose
    certification fails, a predicted one past that, and an index that has
    spent NEWTON_STEPS passes and no longer halves its step go on by halvings
    from the bracket they have.

    Every pass is one _sturm_count call over all shifts, the slope at the
    Newton iterates only.  One tree walk (_mids) plans it: the halving cells,
    one per distinct cell, walk with no aim for as many levels as fit under
    TWO_LEVEL_SHIFTS; the windows and aimed cells walk toward x, or with no
    aim in a narrow pass (SPARE_SHIFTS), so that no halving toward a level
    that rounds the other way is left over.
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
    # the Newton iterate and its last step: 0 once converged, the step itself
    # for an iterate predicted to have converged
    x, last_step = np.empty(n), np.full(n, np.inf)
    tries, untried = np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool)
    aimed = np.zeros(n, dtype=bool)  # certified: its halvings are aimed at x
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
        # the bracket each converged iterate gets if x -/+ delta certify it,
        # and the halvings toward x inside it, counted in the same pass
        window = np.array([np.maximum(bracket[0, certify], x[certify] - delta),
                           np.minimum(bracket[1, certify], x[certify] + delta)])
        owner = np.concatenate([certify, certify])
        probes = np.concatenate([x[certify] - delta, x[certify] + delta])
        inside = (bracket[0, owner] < probes) & (probes < bracket[1, owner])
        owner, probes = owner[inside], probes[inside]
        walk, halve = path[aimed[path]], path[~aimed[path]]
        _, first = np.unique(0.5 * (low[halve] + up[halve]), return_index=True)
        halve = halve[first]  # one walk per distinct cell, or duplicates use up the cap
        mids = np.concatenate([_mids(low[halve], up[halve], steps[halve], bracket[:, halve],
                                     np.nan, TWO_LEVEL_SHIFTS)[1], probes])
        finish = np.concatenate([certify, walk])  # a window counts about 8 midpoints
        narrow = len(mids) + len(newton) + 8 * len(finish) <= SPARE_SHIFTS
        entry, finishing = _mids(low[finish], up[finish], steps[finish],
                                 np.concatenate([window, bracket[:, walk]], axis=1),
                                 np.nan if narrow else x[finish])
        shifts = np.unique(np.concatenate([mids, finishing]))
        k = len(newton)
        counts, slopes = _sturm_count(d, b2, np.concatenate([x[newton], shifts]), slope=k)
        newton_counts, counts = counts[:k], counts[k:]
        _tighten(owner, probes, counts[np.searchsorted(shifts, probes)], bracket,
                 end_counts, targets)
        _tighten(newton, x[newton], newton_counts, bracket, end_counts, targets)
        done, lost = _newton_step(newton, slopes, x, last_step, tries, bracket, delta)
        # a certified index walks on from its cell at the window, where every
        # halving above was decided by the window's ends
        certified = (bracket[0, certify] >= window[0]) & (bracket[1, certify] <= window[1])
        ok = certify[certified]
        low[ok], up[ok], steps[ok] = entry[:, :len(certify)][:, certified]
        aimed[ok] = True
        # a predicted iterate that fails certification resumes its Newton
        # steps from inside its bracket, delta past the probe that failed,
        # while it has Newton passes left
        retry = ~certified & (last_step[certify] > 0) & (tries[certify] < NEWTON_STEPS)
        again = certify[retry]
        x[again] = np.where(bracket[0, again] > x[again], x[again] + 2.0 * delta,
                            x[again] - 2.0 * delta)
        away = again[~((bracket[0, again] < x[again]) & (x[again] < bracket[1, again]))]
        x[away] = 0.5 * (bracket[0, away] + bracket[1, away])
        last_step[again] = np.inf
        path = np.concatenate([path, certify[~retry], newton[lost]])
        certify, newton = newton[done], np.concatenate([newton[~done & ~lost], again])
    return EnergySpectrum(0.5 * np.sort(0.5 * (low + up)))


def _tighten(owner, xs, count, bracket, end_counts, targets):
    """Move each owner's bracket end to its counted shift xs where xs lies inside."""
    side = (count >= targets[owner]).astype(np.int64)
    inside = (bracket[0, owner] < xs) & (xs < bracket[1, owner])
    bracket[side[inside], owner[inside]] = xs[inside]
    end_counts[side[inside], owner[inside]] = count[inside]


def _newton_step(newton, slopes, x, last_step, tries, bracket, delta):
    """Advance the Newton iterates x[newton] in place from their slope sums.

    A step short of half the step before is a cluster's slow geometric
    approach (ratio = |step| / |step before| in (1/2, 1)): the iterate takes
    the whole series, step / (1 - ratio), or, where that leaves the bracket,
    stops halfway from the Newton iterate to the end it heads for.  Any other
    step that leaves the bracket, or is not shorter than the step before, is
    replaced by the bracket's midpoint.  An iterate converges where a pivot
    vanished (a non-finite slope sum: it sits on a level) or where its step
    is under delta (the first step too); its last step is then set to 0.  It
    is done one evaluation earlier where a Newton step at most half the one
    before predicts a next step, size * ratio^2 at a quadratic rate, that
    the rounding of x + step keeps under delta; its last step stays its own
    size.  A done iterate's Newton iterate (itself for a NaN sum), clipped
    into the bracket (a step that rounds out of it lands next to an end), is
    the one to certify.  Returns the masks of the done indices and of those
    that go on by halvings: a bracket without interior, or NEWTON_STEPS
    passes spent and a last step that was no Newton step at least halving
    the one before (an iterate still converging goes on).
    """
    here, ends = x[newton], bracket[:, newton]

    def inside(y):
        return (ends[0] < y) & (y < ends[1])

    with np.errstate(all="ignore"):  # a zero or non-finite slope sum
        step = -1.0 / slopes
        size = np.abs(step)
        ratio = size / last_step[newton]
        converged = ~np.isfinite(slopes) | (size < delta)
        # a quadratic rate puts the next step near size * ratio^2; with the
        # rounding of here + step, the iterate then lies within delta of its level
        predicted = ((ratio > 0.0) & (ratio <= 0.5)
                     & (size * ratio * ratio < delta - 0.5 * np.spacing(np.abs(here))))
        guess = here + np.where(ratio > 0.5, step / (1.0 - ratio), step)
    done = converged | (predicted & inside(here + step))
    guess = np.where(inside(guess), guess,
                     0.5 * (here + step + np.where(step > 0, ends[1], ends[0])))
    newton_ok = inside(guess) & (ratio < 1.0)
    guess = np.where(done, np.clip(np.where(np.isnan(step), here, here + step), ends[0], ends[1]),
                     np.where(newton_ok, guess, 0.5 * (ends[0] + ends[1])))
    x[newton] = guess
    last_step[newton] = np.where(converged, 0.0,
                                 np.where(newton_ok | done, np.abs(guess - here), np.inf))
    tries[newton] += 1
    spent = (tries[newton] >= NEWTON_STEPS) & ~(newton_ok & (ratio <= 0.5))
    return done, ~done & (~inside(guess) | spent)


@dataclass(frozen=True)
class Approximant:
    """The periodic chain whose period word is sigma^order(a), tile-projected.

    a is the alphabet's first letter.  Each letter c carries the transfer
    matrix [[alpha_c - beta_c x, -1], [1, 0]] at shift x = 2e.  Under the
    on-site model that is v_c - x.  Under the hopping model the bonds factor
    as t_n = g_n g_{n+1} with g = exp(-eps^2 v / 2), so H = G A G with A the
    unit-hopping chain with zero site energies; by Sylvester's law of
    inertia H - x has the inertia of A - x G^-2, a unit-hopping chain with
    site energy -x exp(eps^2 v_c) counted at 0, and the count stays per
    letter.  Letters take v_a and v_b in sorted order of the tiles the word
    holds, from the map build_chain uses (_tile_values).  [lower, upper]
    holds the spectrum in x (Gershgorin).
    """

    rule: SubstitutionRule
    order: int
    size: int
    alpha: np.ndarray
    beta: np.ndarray
    lower: float
    upper: float


@dataclass(frozen=True)
class LiftedCounts:
    """Counts at each shift x, read from the lifted supertile transfer matrices.

    free: levels of the free chain on the period word strictly below x.
    periodic: the approximant's level count per period j, its integrated
    density of states times size, where certified (a hyperbolic period
    matrix and a rotation number within INTEGER_TOL of an integer, as in a
    gap); -1 elsewhere.
    """

    free: np.ndarray
    periodic: np.ndarray
    certified: np.ndarray


def approximant(rule: SubstitutionRule, order: int, model) -> Approximant:
    """The approximant of sigma^order(a) under a model, with no word built.

    Word length and letters are followed level by level through the images.
    Refuses what expand_word and build_chain refuse: a negative order, a word
    longer than length_cap(), under two letters or over two tiles.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    seed, limit = rule.alphabet[0], length_cap()
    lengths, letters = dict.fromkeys(rule.alphabet, 1), {seed}
    for _ in range(order):
        lengths = {c: sum(lengths[x] for x in rule.images[c]) for c in rule.alphabet}
        letters = {x for c in letters for x in rule.images[c]}
        if lengths[seed] > limit:
            raise LengthLimit(f"word of length {lengths[seed]} exceeds cap {limit}")
    if lengths[seed] < 2:
        raise ValueError("word must have at least 2 letters")
    values = _tile_values({rule.project(c) for c in letters}, model)
    # letters the word lacks are never composed into its lift
    v = np.array([values.get(rule.project(c), 0.0) for c in rule.alphabet])
    held = v[[i for i, c in enumerate(rule.alphabet) if c in letters]]
    if isinstance(model, OnsiteModel):
        alpha, beta = v, np.ones_like(v)
        lower, upper = held.min() - 2.0, held.max() + 2.0
    else:
        alpha, beta = np.zeros_like(v), np.exp(model.eps**2 * v)
        upper = 2.0 * np.exp(-model.eps**2 * held.min())
        lower = -upper
    return Approximant(rule, order, lengths[seed], alpha, beta, float(lower), float(upper))


def _turn(lift, r):
    """atan2(det sin r, <M e_0, M e_r>): the angle M turns M e_0 through to
    M e_r, in [0, pi] for r in [0, pi), robust when M is nearly of rank one."""
    a, b, c, d, det = lift[:5]
    sin = np.sin(r)
    return np.arctan2(det * sin, (a * a + c * c) * np.cos(r) + (a * b + c * d) * sin)


def _compose(second, first):
    """Lift of second @ first.  A lift is a (7, ...) stack (a, b, c, d, det,
    k, r): M = [[a, b], [c, d]] over its largest entry, det its determinant
    and F(0) = k pi + r with r in [0, pi), so no angle grows with the word."""
    a2, b2, c2, d2, det2, k2, r2 = second
    a1, b1, c1, d1, det1, k1, r1 = first
    out = np.empty_like(first)
    turn = r2 + _turn(second, r1)  # F2(F1(0)) - k1 pi - k2 pi, in [0, 2 pi]
    wrap = turn >= np.pi
    np.add(k1 + k2, wrap, out=out[5])
    np.subtract(turn, np.pi * wrap, out=out[6])
    np.add(a2 * a1, b2 * c1, out=out[0])
    np.add(a2 * b1, b2 * d1, out=out[1])
    np.add(c2 * a1, d2 * c1, out=out[2])
    np.add(c2 * b1, d2 * d1, out=out[3])
    scale = np.abs(out[:4]).max(axis=0)
    scale[scale == 0] = 1.0  # two numerically rank-one factors that cancel
    out[:4] /= scale
    np.divide(det1 * det2, scale * scale, out=out[4])
    return out


def _lifts(appr: Approximant, xs: np.ndarray) -> np.ndarray:
    """Lifts of the transfer matrices of sigma^order(c) for every letter c.

    Level 0 is each letter's own matrix.  Each level composes the previous
    level's lifts along every image, the p-th letters of all images at once;
    det underflows to 0 on long words in a gap, which leaves the lifts exact
    in the limit of rank one.  Shape (7, letters, shifts).
    """
    rule = appr.rule
    index = {c: i for i, c in enumerate(rule.alphabet)}
    images = [[index[x] for x in rule.images[c]] for c in rule.alphabet]
    later = [([i for i, image in enumerate(images) if len(image) > p],
              [image[p] for image in images if len(image) > p])
             for p in range(1, max(map(len, images)))]
    diag = appr.alpha[:, None] - appr.beta[:, None] * xs
    scale = np.maximum(np.abs(diag), 1.0)
    lift = np.zeros((7, *diag.shape))
    lift[0], lift[1], lift[2] = diag / scale, -1.0 / scale, 1.0 / scale
    lift[4] = 1.0 / (scale * scale)
    lift[6] = np.arctan2(1.0, diag)
    for _ in range(appr.order):
        acc = lift[:, [image[0] for image in images]]
        for rows, steps in later:
            if len(rows) == len(images):
                acc = _compose(lift[:, steps], acc)
            else:
                acc[:, rows] = _compose(lift[:, steps], acc[:, rows])
        lift = acc
    return lift


def lifted_counts(appr: Approximant, xs) -> LiftedCounts:
    """Free-chain and approximant counts at shifts xs, from supertile lifts.

    The transfer matrices act on (p_i, p_{i-1}), the leading minors of
    H - x, and each is lifted to the universal cover of its action on
    angles: F(k pi + r) = F(0) + k pi + atan2(det sin r, <M e_0, M e_r>)
    for r in [0, pi), e_r = (cos r, sin r).  A sign change of the minors is
    a crossing of pi/2 mod pi, so the free chain has floor(F(0)/pi + 1/2)
    levels below x, its Sturm count.  In a gap the period's matrix is
    hyperbolic (tr^2 > 4 det) and fixes x*, the angle of its expanding
    eigenvector, and j = (F(x*) - x*)/pi is its rotation number, the
    approximant's count per period (Johnson & Moser, CMP 84, 1982).  A
    shift costs the order times the image letters, whatever the word's
    length; shifts go LIFT_CHUNK at a time, and every operation is
    elementwise, so a shift's counts do not depend on the others.

    Within a few ulps of a level of the chain, or of a cluster of nearly
    degenerate supertile levels, the free count may differ from the Sturm
    count (an angle that rounds onto pi/2, a turn that rounds onto 0 or pi
    at a near-singular factor).  The gap scan counts only where the
    approximant's count is certified.
    """
    xs = np.asarray(xs, dtype=float)
    parts = [_counts(appr, xs[start:start + LIFT_CHUNK])
             for start in range(0, len(xs), LIFT_CHUNK)] or [_counts(appr, xs)]
    return LiftedCounts(*(np.concatenate(field) for field in zip(*parts)))


def _counts(appr: Approximant, xs: np.ndarray):
    with np.errstate(all="ignore"):  # det underflows to 0 on long words in a gap
        lift = _lifts(appr, xs)[:, 0]
        a, b, c, d, det, k, r = lift
        free = (k + (r >= 0.5 * np.pi)).astype(np.int64)
        trace = a + d
        disc = trace * trace - 4.0 * det
        hyperbolic = disc > 0
        big = 0.5 * (trace + np.copysign(np.sqrt(np.where(hyperbolic, disc, 0.0)), trace))
        # the expanding eigenvector (b, big - a) or (big - d, c), the longer one
        first = np.hypot(b, big - a) >= np.hypot(big - d, c)
        star = np.mod(np.arctan2(np.where(first, big - a, c), np.where(first, b, big - d)),
                      np.pi)
        t = (r + _turn(lift, star) - star) / np.pi
        whole = np.round(t)
        certified = hyperbolic & (np.abs(t - whole) <= INTEGER_TOL)
        periodic = np.where(certified, k + whole, -1).astype(np.int64)
        return free, periodic, certified


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

    Kept on purpose, with MAX_STRAYS, for chains that have no rule behind
    them (spectrum files, cut-and-project chains): rule-backed gaps are the
    periodic approximant's, which has no edge modes.

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
