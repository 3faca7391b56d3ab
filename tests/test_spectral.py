import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from aperiodix import spectral
from aperiodix.cutproject import CPParams, cp_word
from aperiodix.errors import LengthLimit
from aperiodix.spectral import (
    BISECT_STEPS,
    MAX_STRAYS,
    PIVMIN,
    TWO_LEVEL_SHIFTS,
    EnergySpectrum,
    HoppingModel,
    OnsiteModel,
    TightBindingChain,
    _gershgorin,
    _sturm_count,
    approximant,
    build_chain,
    bulk_gaps,
    detect_gaps,
    eigenvalues_tridiag,
    lifted_counts,
)
from aperiodix.substitution import (
    SubstitutionRule,
    builtin_rule,
    expand_word,
    is_primitive,
    occurrence_matrix,
)
from spectral_oracles import SizeLimit, brute_force_eigs, counting_function

GOLDEN = (1 + math.sqrt(5)) / 2
# sites that cross two block ends of a pass of up to a few hundred shifts,
# whose blocks are the tallest
CROSSING = 2 * spectral._block_height(1) + 3


def fibonacci_word(order):
    rule = builtin_rule("fibonacci")
    return rule.project(expand_word(rule, "a", order))


def test_build_chain_onsite():
    chain = build_chain("ab", OnsiteModel(0.0, 1.0))
    assert np.allclose(chain.onsite, [0.0, 1.0])
    assert np.allclose(chain.hopping, [1.0])


def test_build_chain_hopping():
    chain = build_chain("aaa", HoppingModel(1.0, 0.0, 1.0))
    assert np.allclose(chain.onsite, 0.0)
    assert np.allclose(chain.hopping, [math.exp(-1.0), math.exp(-1.0)])


def test_build_chain_fibonacci_size():
    chain = build_chain(fibonacci_word(10), OnsiteModel(0.0, 1.0))
    assert chain.size == 144


def test_eigenvalues_three_site_closed_form():
    chain = build_chain("aaa", OnsiteModel(0.0, 0.0))
    eigs = eigenvalues_tridiag(chain).eigenvalues
    expected = [-math.sqrt(2) / 2, 0.0, math.sqrt(2) / 2]
    assert np.allclose(eigs, expected, atol=1e-12)


def test_eigenvalues_single_site():
    chain = TightBindingChain(np.array([3.5]), np.array([]))
    assert np.allclose(eigenvalues_tridiag(chain).eigenvalues, [1.75])


def test_eigenvalues_open_chain_dispersion():
    # free chain of N sites: matrix eigenvalues 2 cos(j pi / (N+1))
    n = 6
    chain = build_chain("a" * n, OnsiteModel(0.0, 0.0))
    eigs = eigenvalues_tridiag(chain).eigenvalues
    expected = sorted(math.cos(j * math.pi / (n + 1)) for j in range(1, n + 1))
    assert np.allclose(eigs, expected, atol=1e-12)


def test_oracle_two_site():
    chain = build_chain("aa", OnsiteModel(0.0, 0.0))
    eigs = brute_force_eigs(chain).eigenvalues
    assert np.allclose(eigs, [-0.5, 0.5], atol=1e-12)


def test_oracle_size_limit():
    chain = build_chain("a" * 13, OnsiteModel(0.0, 0.0))
    with pytest.raises(SizeLimit):
        brute_force_eigs(chain)


def test_oracle_equivalence_randomised():
    rng = np.random.default_rng(7)
    for _ in range(60):
        n = int(rng.integers(2, 13))
        word = "".join(rng.choice(["a", "b"], n))
        va, vb = rng.uniform(-2.0, 2.0, 2)
        if rng.random() < 0.5:
            chain = build_chain(word, OnsiteModel(va, vb))
        else:
            chain = build_chain(word, HoppingModel(va, vb, float(rng.uniform(0.1, 1.5))))
        e_main = eigenvalues_tridiag(chain).eigenvalues
        e_oracle = brute_force_eigs(chain).eigenvalues
        assert np.max(np.abs(e_main - e_oracle)) < 1e-10


def test_counting_function():
    chain = build_chain("aaa", OnsiteModel(0.0, 0.0))
    spec = eigenvalues_tridiag(chain)
    assert counting_function(spec, -10.0) == 0.0
    assert counting_function(spec, 10.0) == 1.0
    assert counting_function(spec, 0.1) == pytest.approx(2 / 3)


def test_sturm_count_matches_counting_function():
    rng = np.random.default_rng(3)
    word = "".join(rng.choice(["a", "b"], 40))
    chain = build_chain(word, OnsiteModel(-0.7, 1.3))
    spec = eigenvalues_tridiag(chain)
    b2 = chain.hopping**2
    for e in rng.uniform(-1.5, 1.5, 25):
        # counts at 2e (matrix convention) equal N * counting at e, except
        # exactly on an eigenvalue; shift off by a hair
        x = 2 * e + 1e-13
        count = int(_sturm_count(chain.onsite, b2, np.array([x]))[0])
        assert count == round(spec.size * counting_function(spec, e))


@st.composite
def chains_and_shifts(draw):
    n = draw(st.integers(2, CROSSING))
    onsite = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    hopping = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
    xs = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=8))
    return TightBindingChain(np.array(onsite), np.array(hopping)), np.array(xs)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(chains_and_shifts())
def test_sturm_count_equals_eigenvalue_count(chain_and_shifts):
    chain, xs = chain_and_shifts
    d, b = chain.onsite, chain.hopping
    eigs = np.linalg.eigvalsh(np.diag(d) + np.diag(b, 1) + np.diag(b, -1))
    # shifts on an eigenvalue (to rounding) have no well-defined count
    assume(np.min(np.abs(eigs[:, None] - xs[None, :])) > 1e-9 * (1 + np.abs(eigs).max()))
    counts = _sturm_count(d, b * b, xs)
    assert list(counts) == [int(np.sum(eigs < x)) for x in xs]
    if chain.size <= 12:
        oracle = 2 * brute_force_eigs(chain).eigenvalues
        assert list(counts) == [int(np.sum(oracle < x)) for x in xs]


def reference_sturm_count(d, b2, xs):
    """The pivot recurrence one site at a time, every shift on its own row."""
    q = d[0] - xs
    q = np.where(np.abs(q) < PIVMIN, -PIVMIN, q)
    count = (q < 0).astype(np.int64)
    for i in range(1, len(d)):
        q = (d[i] - xs) - b2[i - 1] / q
        q = np.where(np.abs(q) < PIVMIN, -PIVMIN, q)
        count += q < 0
    return count


def reference_eigenvalues(chain):
    """BISECT_STEPS lockstep halvings of every index, with no index left out."""
    d, b = chain.onsite, chain.hopping
    n = len(d)
    if n == 1:
        return np.array([d[0] / 2.0])
    lo, hi = _gershgorin(d, b)
    span = max(hi - lo, 1e-30)
    lower = np.full(n, lo - 1e-12 * span)
    upper = np.full(n, hi + 1e-12 * span)
    targets = np.arange(1, n + 1)
    for _ in range(BISECT_STEPS):
        mid = 0.5 * (lower + upper)
        below = reference_sturm_count(d, b * b, mid) < targets
        lower = np.where(below, mid, lower)
        upper = np.where(below, upper, mid)
    return 0.5 * np.sort(0.5 * (lower + upper))


@st.composite
def integer_chains_and_shifts(draw):
    # integer levels and integer or dyadic shifts hit exact zero pivots; up
    # to three blocks of a narrow pass
    n = draw(st.integers(1, CROSSING))
    onsite = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    hopping = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                            min_size=n - 1, max_size=n - 1))
    xs = draw(st.lists(st.integers(-40, 40).map(lambda k: k / 4),
                       min_size=1, max_size=12))
    repeats = draw(st.lists(st.sampled_from(xs), max_size=4))
    return (np.array(onsite, dtype=float), np.array(hopping) ** 2,
            np.array(xs + repeats))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(integer_chains_and_shifts())
def test_sturm_count_is_the_plain_recurrence_bit_for_bit(case):
    d, b2, xs = case
    counts = _sturm_count(d, b2, xs)
    assert counts.dtype == np.int64
    assert np.array_equal(counts, reference_sturm_count(d, b2, xs))


def test_zero_pivot_counts_as_below():
    # x = 0 on the free three-site chain: q_0 = 0 becomes -PIVMIN, so the
    # level at 0 counts as below, and the first block is run with the guard
    d, b2, xs = np.zeros(3), np.ones(2), np.array([0.0, 1.0, 0.0])
    assert list(_sturm_count(d, b2, xs)) == [2, 2, 2]
    assert np.array_equal(_sturm_count(d, b2, xs), reference_sturm_count(d, b2, xs))


SUBNORMAL = 5e-324
# pivots at and under PIVMIN in size: zeros of either sign, subnormals and
# the neighbours of +-PIVMIN; only those strictly under it take the guard
EDGE_PIVOTS = [0.0, -0.0, SUBNORMAL, -SUBNORMAL, 1e-310, -1e-310, PIVMIN, -PIVMIN,
               np.nextafter(PIVMIN, 0.0), np.nextafter(-PIVMIN, 0.0),
               np.nextafter(PIVMIN, 1.0), np.nextafter(-PIVMIN, -1.0)]


def assert_counts_are_the_reference(d, b2, xs):
    expected = reference_sturm_count(d, b2, xs)
    assert np.array_equal(_sturm_count(d, b2, xs), expected)
    for slope in (True, 1):
        assert np.array_equal(_sturm_count(d, b2, xs, slope=slope)[0], expected)


@pytest.mark.parametrize("pivot", EDGE_PIVOTS)
def test_edge_pivots_count_as_the_guarded_recurrence(pivot):
    # a pivot under PIVMIN in size becomes -PIVMIN and counts as below;
    # +-PIVMIN itself is kept, so the count is [pivot < PIVMIN]
    one = _sturm_count(np.array([pivot]), np.empty(0), np.array([0.0]))
    assert list(one) == [int(pivot < PIVMIN)]
    # the same pivot at every row of a block and across block ends: a zero
    # bond before the site makes its pivot d_i - x exactly, and the unit bond
    # after it carries the guarded (or kept) value on
    xs = np.array([0.0, 0.5, -3.0, 0.0, 2.5])
    height = spectral._block_height(len(xs))
    n = 2 * height + 3
    for site in (0, 1, 2, height - 1, height, height + 1, 2 * height - 1, 2 * height,
                 2 * height + 1, n - 1):
        d = np.ones(n)
        d[site] = pivot
        b2 = np.ones(n - 1)
        if site:
            b2[site - 1] = 0.0
        assert_counts_are_the_reference(d, b2, xs)


@st.composite
def edge_chains_and_shifts(draw):
    # site energies and shifts among the edge pivots, so differences and
    # quotients meet them too; some chains carry a NaN or an infinity
    values = st.sampled_from([*EDGE_PIVOTS, 1.0, -1.0, 2.0, 0.5])
    n = draw(st.integers(1, CROSSING))
    onsite = draw(st.lists(values, min_size=n, max_size=n))
    hopping2 = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0, 4.0, SUBNORMAL, PIVMIN]),
                             min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        entry = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        site = draw(st.integers(0, 2 * n - 2))
        if site < n:
            onsite[site] = entry
        else:
            hopping2[site - n] = abs(entry)
    xs = draw(st.lists(values, min_size=1, max_size=8))
    return np.array(onsite), np.array(hopping2), np.array(xs)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(edge_chains_and_shifts())
def test_edge_pivot_chains_are_the_plain_recurrence_bit_for_bit(case):
    assert_counts_are_the_reference(*case)


@pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
def test_non_finite_chains_count_as_the_plain_recurrence(entry):
    xs = np.array([-3.0, 0.0, PIVMIN, 1.0, 3.0])
    height = spectral._block_height(len(xs))
    n = height + 5
    for site in (0, 1, height - 1, height, n - 1):
        d, b2 = np.linspace(-1.0, 1.0, n), np.ones(n - 1)
        d[site] = entry
        assert_counts_are_the_reference(d, b2, xs)
        d[site] = 0.0
        b2[min(site, n - 2)] = abs(entry)
        assert_counts_are_the_reference(d, b2, xs)


@st.composite
def monotone_cases(draw):
    # float or integer chains (the latter meet exact zero pivots) at sorted
    # shifts next to their floating-point neighbours
    n = draw(st.integers(1, CROSSING))
    if draw(st.booleans()):
        onsite = np.array(draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)),
                          dtype=float)
        hopping = np.array(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                         min_size=n - 1, max_size=n - 1)))
        xs = draw(st.lists(st.integers(-40, 40).map(lambda k: k / 4), min_size=1, max_size=10))
    else:
        onsite = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
        hopping = np.array(draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1,
                                         max_size=n - 1)))
        xs = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=10))
    xs = np.array(xs)
    xs = np.sort(np.concatenate([xs, np.nextafter(xs, -np.inf), np.nextafter(xs, np.inf)]))
    return onsite, hopping ** 2, xs


@settings(max_examples=300, derandomize=True, deadline=None)
@given(monotone_cases())
def test_sturm_count_is_monotone_in_x(case):
    # the premise of the count-free halvings in eigenvalues_tridiag: a
    # midpoint at or below a shift counted below k is below k too
    d, b2, xs = case
    counts = _sturm_count(d, b2, xs)
    assert np.all(np.diff(counts, axis=-1) >= 0)
    # the slope sum rides along without moving a count
    for slope in (True, len(xs) // 2):
        with_slope, sums = _sturm_count(d, b2, xs, slope=slope)
        assert np.array_equal(with_slope, counts)
        assert sums.shape == counts.shape[:-1] + (len(xs) if slope is True else slope,)


@st.composite
def zero_diagonal_chains_and_shifts(draw):
    # a zero diagonal (of either sign) is counted one +-x pair at a time;
    # dyadic shifts on bonds from {0.5, 1, 2} meet exact zero pivots at x and
    # -x, and some cases carry mirrored shifts, +-0.0, NaN or an infinite bond
    n = draw(st.integers(1, CROSSING))
    onsite = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=n, max_size=n))
    if draw(st.booleans()):
        hopping = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                min_size=n - 1, max_size=n - 1))
        xs = draw(st.lists(st.integers(-40, 40).map(lambda k: k / 4), min_size=1, max_size=10))
    else:
        hopping = draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1))
        xs = draw(st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=10))
    mirrored = [-x for x in draw(st.lists(st.sampled_from(xs), max_size=6))]
    extra = draw(st.lists(st.sampled_from([0.0, -0.0, math.nan]), max_size=3))
    xs = draw(st.permutations(xs + mirrored + extra))
    b2 = np.array(hopping) ** 2
    if n > 1 and draw(st.integers(0, 7)) == 0:
        b2[draw(st.integers(0, n - 2))] = math.inf
    return np.array(onsite), b2, np.array(xs), draw(st.integers(0, len(xs)))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(zero_diagonal_chains_and_shifts())
def test_zero_diagonal_counts_each_pair_once(case):
    d, b2, xs, lead = case
    expected = reference_sturm_count(d, b2, xs)
    assert np.array_equal(_sturm_count(d, b2, xs), expected)
    counts, sums = _sturm_count(d, b2, xs, slope=lead)
    assert np.array_equal(counts, expected)
    # the sums of the unfolded pivot loop where no pivot fell under PIVMIN;
    # at a guarded shift the sum depends on the grouping (on d = 0,
    # b = (1, 2, 2, .5, 2, 1, 2, 2, 2, 2, 2, 1) at x = 1 it is -12.545 alone
    # and -9.545 beside other shifts)
    _, plain, met = spectral._pivot_counts(d, b2, xs, lead)
    free = ~met[:lead]
    assert np.allclose(sums[free], plain[free], rtol=1e-9, atol=1e-9, equal_nan=True)


def test_slope_sum_is_the_log_derivative_of_the_determinant(monkeypatch):
    # a ladder of levels about 0.5 apart across two block ends: a shift
    # between two close levels would leave numpy's eigenvalues, not the
    # slope sum, short of the tolerance
    rng = np.random.default_rng(5)
    d = 0.5 * np.arange(CROSSING) + rng.uniform(-0.125, 0.125, CROSSING)
    b = rng.uniform(0.5, 1.5, CROSSING - 1)
    eigs = np.linalg.eigvalsh(np.diag(d) + np.diag(b, 1) + np.diag(b, -1))
    xs = 0.5 * (eigs[:-1] + eigs[1:])
    # d/dx log|det(T - x)| = sum_j 1 / (x - lambda_j)
    expected = np.sum(1.0 / (xs[:, None] - eigs[None, :]), axis=1)
    # the block's divisions at once, then a division a row
    for row_slopes in (len(xs) + 1, len(xs)):
        monkeypatch.setattr(spectral, "ROW_SLOPES", row_slopes)
        counts, sums = _sturm_count(d, b * b, xs, slope=True)
        assert np.allclose(sums, expected, rtol=1e-9, atol=1e-9)
        assert np.array_equal(counts, _sturm_count(d, b * b, xs))


def test_eigenvalues_are_the_plain_bisection_bit_for_bit():
    rng = np.random.default_rng(11)
    sizes = [1, 2, 3, 15, 16, 17, 33, 200, *rng.integers(1, 201, 12)]
    for n in sizes:
        hopping = rng.uniform(0.05, 2.0, n - 1)
        onsite = (rng.integers(-2, 3, n).astype(float) if n % 2
                  else rng.uniform(-2.0, 2.0, n))
        chain = TightBindingChain(onsite, hopping)
        assert np.array_equal(eigenvalues_tridiag(chain).eigenvalues,
                              reference_eigenvalues(chain)), n
    for n in (40, 201):
        # integer levels and hoppings meet exact zero pivots
        chain = TightBindingChain(rng.integers(-2, 3, n).astype(float), np.ones(n - 1))
        assert np.array_equal(eigenvalues_tridiag(chain).eigenvalues,
                              reference_eigenvalues(chain)), n
    chain = build_chain(fibonacci_word(15)[:1000], OnsiteModel(0.0, 1.0))
    assert np.array_equal(eigenvalues_tridiag(chain).eigenvalues,
                          reference_eigenvalues(chain))
    # above TWO_LEVEL_SHIFTS the middle passes take one halving per sweep;
    # the free chain's level at 0 is halved through all BISECT_STEPS passes
    n = 1601
    assert n > TWO_LEVEL_SHIFTS
    chain = TightBindingChain(np.zeros(n), np.ones(n - 1))
    assert np.array_equal(eigenvalues_tridiag(chain).eigenvalues,
                          reference_eigenvalues(chain))
    # isolated brackets finished by Newton steps and count-free halvings, on
    # chains with no substitution behind them, under both models; the 5/13
    # chain's iterates approach clusters and sum their series
    for slope in ("1/golden", "5/13"):
        word = cp_word(CPParams.from_text(slope), 0, 1000)
        for model in (OnsiteModel(0.0, 1.0), HoppingModel(0.0, 1.0, 1.0)):
            chain = build_chain(word, model)
            assert np.array_equal(eigenvalues_tridiag(chain).eigenvalues,
                                  reference_eigenvalues(chain)), (slope, model)
    # near-degenerate edge pairs that never isolate go on by halvings
    rule = builtin_rule("period-doubling")
    chain = build_chain(rule.project(expand_word(rule, "a", 10)), OnsiteModel(0.0, 1.0))
    assert np.array_equal(eigenvalues_tridiag(chain).eigenvalues,
                          reference_eigenvalues(chain))
    # a zero diagonal of odd size has a level at 0, where the count meets
    # the guard
    for n in (3, 15, 17, 33, 129, 201):
        chain = TightBindingChain(np.zeros(n), rng.uniform(0.05, 2.0, n - 1))
        assert np.array_equal(eigenvalues_tridiag(chain).eigenvalues,
                              reference_eigenvalues(chain)), n
    # a middle pivot vanishes at x = 1, off every level: the slope sum there
    # is finite and wrong (-12.5 alone, -9.5 beside two copies of x; the true
    # sum is -9.05), and only the count is exact
    chain = TightBindingChain(np.zeros(13), np.array([1, 2, 2, .5, 2, 1, 2, 2, 2, 2, 2, 1.0]))
    assert np.array_equal(eigenvalues_tridiag(chain).eigenvalues, reference_eigenvalues(chain))


def reference_entry(lo, up, steps, a, b):
    """The cell a recursive plain bisection reaches while (a, b) decides it."""
    mid = 0.5 * (lo + up)
    if mid in (lo, up) or steps >= BISECT_STEPS or not (mid <= a or mid >= b):
        return lo, up, steps
    return reference_entry(*((mid, up) if mid <= a else (lo, mid)), steps + 1, a, b)


def reference_walk(lo, up, steps, a, b, aim, limit, levels, depth=0):
    """Midpoints inside (a, b) of the plain bisection tree below a cell, to
    limit levels, by level.  Past a midpoint inside (a, b) the walk follows
    both halves with no aim (NaN) and the half toward aim otherwise; past
    one outside, the half that still meets (a, b)."""
    mid = 0.5 * (lo + up)
    if depth > limit or mid in (lo, up) or steps >= BISECT_STEPS:
        return
    inside = a < mid < b
    level = levels.setdefault(depth, [])
    if inside:
        level.append(mid)
    free = not inside or math.isnan(aim)
    if a < mid and lo < b and (free or aim <= mid):
        reference_walk(lo, mid, steps + 1, a, b, aim, limit, levels, depth + 1)
    if mid < b and a < up and (free or aim > mid):
        reference_walk(mid, up, steps + 1, a, b, aim, limit, levels, depth + 1)


def reference_mids(cells, ends, aims, cap):
    """Every cell's midpoints to the first level at which those taken over
    all cells number more than cap, or to the last level the walks reach."""
    for limit in range(BISECT_STEPS + 1):
        levels = {}
        for (lo, up, steps), (a, b), aim in zip(cells, ends, aims):
            reference_walk(lo, up, steps, a, b, aim, limit, levels)
        if len(levels) <= limit or sum(map(len, levels.values())) > cap:
            break
    return sorted(mid for level in levels.values() for mid in level)


def near(draw, x):
    """x, or a float a few ulps from it."""
    for _ in range(draw(st.integers(0, 3))):
        x = np.nextafter(x, draw(st.sampled_from([-np.inf, np.inf])))
    return float(x)


@st.composite
def walk_cases(draw):
    # cells of the plain bisection of a Gershgorin-like interval, down to
    # BISECT_STEPS, and cells a few ulps wide, whose midpoints round onto an
    # end; ends and aims on, next to, inside and outside the cell's midpoints
    cap = draw(st.sampled_from([0, 1, 2, 7, 40, math.inf]))
    lo0 = draw(st.floats(-4.0, -0.5))
    hi0 = lo0 + draw(st.floats(0.5, 8.0))
    cells, ends, aims = [], [], []
    for _ in range(draw(st.integers(1, 4))):
        aim_free = draw(st.booleans())
        # a walk with no aim and no cap must stay small: at most 2^9 leaves
        deep = BISECT_STEPS - 16 if aim_free and cap == math.inf else 0
        steps = draw(st.sampled_from([deep, BISECT_STEPS - 1, BISECT_STEPS])
                     if draw(st.integers(0, 4)) == 0 else st.integers(deep, BISECT_STEPS))
        if draw(st.sampled_from([True, True, True, False])):
            lo, up = lo0, hi0
            for _ in range(steps):
                mid = 0.5 * (lo + up)
                lo, up = (mid, up) if draw(st.booleans()) else (lo, mid)
        else:
            lo = draw(st.floats(lo0, hi0))
            up = max(near(draw, lo), float(np.nextafter(lo, np.inf)))
        points = [lo, up, 0.5 * (lo + up), 0.25 * (3 * lo + up), 0.25 * (lo + 3 * up)]

        def point():
            choice = draw(st.sampled_from(["cell", "inside", "anywhere"]))
            if choice == "cell":
                return near(draw, draw(st.sampled_from(points)))
            if choice == "inside":
                return draw(st.floats(lo, up))
            return draw(st.floats(lo0 - 1.0, hi0 + 1.0))

        a, b = sorted([point(), point()])
        if a == b:
            a, b = min(a, lo), max(b, up)
        cells.append((lo, up, steps))
        ends.append((a, b))
        aims.append(math.nan if aim_free else point())
    return cells, ends, aims, cap


@settings(max_examples=300, derandomize=True, deadline=None)
@given(walk_cases())
def test_walk_is_the_recursive_walk_of_the_bisection_tree(case):
    # the entry cells, and every midpoint of a walk with no aim (to the
    # cap's level) or exactly the aimed path's midpoints inside the ends
    cells, ends, aims, cap = case
    low, up, steps = (np.array(column) for column in zip(*cells))
    entry, mids = spectral._mids(low, up, steps.astype(np.int64), np.array(ends).T,
                                 np.array(aims), cap)
    expected = [reference_entry(*cell, *end) for cell, end in zip(cells, ends)]
    assert np.array_equal(entry, np.array(expected, dtype=float).T)
    entered = [(lo, up, int(steps)) for lo, up, steps in expected]
    assert np.sort(mids).tolist() == reference_mids(entered, ends, aims, cap)


def test_hopping_chain_is_the_plain_bisection_where_it_is_not_mirror_symmetric():
    # the chains workload's seed-1 5/13 hopping chain: the plain bisection
    # puts indices 440 and 559 2 ulps apart from mirror images (midpoint
    # -0.17722182305326015 meets 7 exact zero pivots), so eigenvalues cannot
    # be mirrored, only counts
    word = cp_word(CPParams.from_text("5/13", phason=5.040780044795463), 66172, 1000)
    chain = build_chain(word, HoppingModel(0.0, 1.0, 1.0))
    expected = reference_eigenvalues(chain)
    assert np.array_equal(eigenvalues_tridiag(chain).eigenvalues, expected)
    assert np.flatnonzero(expected != -expected[::-1]).tolist() == [440, 559]


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_non_finite_chain_gives_nan_eigenvalues(entry):
    # as the plain bisection does, and without a pass that counts nothing
    chain = TightBindingChain(np.array([0.0, entry, 1.0]), np.ones(2))
    with np.errstate(invalid="ignore"):
        eigs = eigenvalues_tridiag(chain).eigenvalues
        assert np.isnan(eigs).all() and np.isnan(reference_eigenvalues(chain)).all()


# a Sturm pass with slope sums costs SLOPE_PASS plain passes in its site loop
# and SLOPE_SHIFT plain shifts per slope shift (measured at N = 2000: 5.6 ms
# for a 16-shift pass, 9.9 ms with slopes; 18.5 ms and 35.0 ms at 2048)
SLOPE_PASS, SLOPE_SHIFT = 1.75, 2.0


def kernel_calls(monkeypatch, chain, rel=0.0):
    """(shifts, slope shifts) of each Sturm pass of one solve, with every
    slope sum scaled by 1 + rel."""
    calls = []
    kernel = spectral._sturm_count

    def counting(d, b2, xs, slope=False):
        calls.append((len(xs), len(xs) if slope is True else int(slope)))
        out = kernel(d, b2, xs, slope=slope)
        return (out[0], out[1] * (1.0 + rel)) if slope is not False else out

    monkeypatch.setattr(spectral, "_sturm_count", counting)
    eigenvalues_tridiag(chain)
    monkeypatch.undo()
    return calls


def assert_few_narrow_passes(monkeypatch, rel=0.0):
    word = cp_word(CPParams.from_text("1/golden"), 0, 2000)
    calls = kernel_calls(monkeypatch, build_chain(word, OnsiteModel(0.0, 1.0)), rel)
    passes = sum(SLOPE_PASS if lead else 1.0 for _, lead in calls)
    shifts = sum(width + (SLOPE_SHIFT - 1.0) * lead for width, lead in calls)
    assert len(calls) <= 14
    assert passes <= 23.5
    assert shifts <= 43500


def test_eigen_solve_makes_few_narrow_passes(monkeypatch):
    # the cost of one N = 2000 solve, deterministic: 13 kernel passes, 21.25
    # weighted passes and 37723 weighted shifts (15, 24.0 and 38781 before
    # iterates stopped one Newton evaluation early and certified indices
    # finished in their certification pass), against 50 passes and 87321
    # shifts for the plain bisection; the bounds leave 8-15% headroom, so a
    # tail of nearly empty passes or wide slope passes fails here
    assert_few_narrow_passes(monkeypatch)


@pytest.mark.parametrize("rel", [1e-12, -1e-12])
def test_few_narrow_passes_with_slope_sums_off_by_rounding(monkeypatch, rel):
    # no Newton decision rests on the last bits of a slope sum
    assert_few_narrow_passes(monkeypatch, rel)


def test_cluster_approach_leaves_no_tail_of_passes(monkeypatch):
    # Newton iterates next to a cluster approach it geometrically; taking the
    # whole series keeps them from running out of Newton passes and going on
    # by wide halving sweeps (19 passes and 26539 shifts before the series,
    # 14 and 15303 before the early stop, 13 and 14849 now)
    word = cp_word(CPParams.from_text("5/13"), 0, 1000)
    calls = kernel_calls(monkeypatch, build_chain(word, HoppingModel(0.0, 1.0, 1.0)))
    assert len(calls) <= 14
    assert sum(width for width, _ in calls) <= 17500


@pytest.mark.parametrize("model", [OnsiteModel(0.0, 1.0), HoppingModel(0.0, 1.0, 1.0)],
                         ids=["onsite", "hopping"])
def test_golden_4000_solve_counts_few_shifts(monkeypatch, model):
    # 49227 (on-site) and 47132 (hopping) shifts in 16 and 17 passes, 16876
    # and 16846 of them with slope sums; 44823 and 44735 shifts in 18 passes
    # each, 20779 and 20668 with slopes, before iterates stopped one Newton
    # evaluation early (a second certification probe for each index, one
    # slope sum fewer); 54991 and 53529 shifts before the lean Sturm pass and
    # the cluster series
    word = cp_word(CPParams.from_text("1/golden"), 0, 4000)
    calls = kernel_calls(monkeypatch, build_chain(word, model))
    assert sum(width for width, _ in calls) <= 50000
    assert sum(lead for _, lead in calls) <= 18500
    assert len(calls) <= 18


def test_golden_4000_hopping_solve_counts_each_pair_once(monkeypatch):
    # the shifts the pivot loop takes: 24550, 8423 with slope sums (47132
    # and 16846 before +-x pairs were counted once), in 17 passes and one
    # 1-shift recount of a shift whose mirror met the guard
    calls = []
    loop = spectral._pivot_counts

    def counting(d, b2, xs, lead):
        calls.append((len(xs), lead))
        return loop(d, b2, xs, lead)

    monkeypatch.setattr(spectral, "_pivot_counts", counting)
    word = cp_word(CPParams.from_text("1/golden"), 0, 4000)
    eigenvalues_tridiag(build_chain(word, HoppingModel(0.0, 1.0, 1.0)))
    assert sum(width for width, _ in calls) <= 26000
    assert sum(lead for _, lead in calls) <= 9000
    assert len(calls) <= 19


def test_lost_iterate_finishes_in_few_passes(monkeypatch):
    # index 3777 of this chain sits 6.7e-6 from its neighbour, spends its
    # Newton passes and goes on by halvings, about 11 levels a pass: 17
    # passes, 5 of them after the last with 10 or more Newton iterates (18
    # and 5 before iterates stopped one Newton evaluation early)
    word = cp_word(CPParams.from_text("1/golden", phason=0.3), 17, 4000)
    calls = kernel_calls(monkeypatch, build_chain(word, OnsiteModel(0.0, 1.0)))
    last_busy = max(i for i, (_, lead) in enumerate(calls) if lead >= 10)
    assert len(calls) <= 17
    assert len(calls) - last_busy - 1 <= 5


@pytest.mark.parametrize("d, b, level", [
    ([0.0, 0.0, 0.0], [1.0, 1.0], 1),   # the first pivot vanishes
    ([0.0, 0.0], [1.0], 1),             # the last pivot vanishes
    ([0.0, 0.0], [1.0], 0),
], ids=["first-pivot", "last-pivot-upper", "last-pivot-lower"])
def test_iterate_on_a_level_converges_there(d, b, level):
    d, b = np.array(d), np.array(b)
    levels = np.linalg.eigvalsh(np.diag(d) + np.diag(b, 1) + np.diag(b, -1))
    x = np.round(levels, 12)  # the levels 0 and +-1 exactly
    assert x[level] in (-1.0, 0.0, 1.0)
    _, slopes = _sturm_count(d, b * b, x[[level]], slope=True)
    # the count at x put x at the bracket's upper end; a first Newton step
    newton = np.array([level])
    bracket = np.array([x - 0.25, x])
    last_step, tries = np.full(len(d), np.inf), np.zeros(len(d), dtype=np.int64)
    level_x = x[level]
    for sums in (slopes, np.array([np.nan])):  # a huge sum, or one a later site overflowed
        done, lost = spectral._newton_step(newton, sums, x, last_step, tries, bracket, 1e-16)
        assert done.all() and not lost.any()
        assert abs(x[level] - level_x) < 1e-16


@pytest.mark.parametrize("cap", [0, 1, 2, 5, 13, 40])
def test_eigenvalues_are_the_plain_bisection_at_any_two_level_cap(monkeypatch, cap):
    # the cap sets where sweeps switch between one and two halvings, so some
    # caps reach the last pass on a two-level sweep; the level at 0 of the
    # free chain is halved through all BISECT_STEPS passes
    monkeypatch.setattr(spectral, "TWO_LEVEL_SHIFTS", cap)
    rng = np.random.default_rng(cap)
    for chain in (TightBindingChain(np.zeros(41), np.ones(40)),
                  TightBindingChain(rng.integers(-2, 3, 40).astype(float), np.ones(39))):
        assert np.array_equal(eigenvalues_tridiag(chain).eigenvalues,
                              reference_eigenvalues(chain))


def test_shift_covariance():
    word = fibonacci_word(8)
    base = build_chain(word, OnsiteModel(0.0, 1.0))
    shifted = build_chain(word, OnsiteModel(2.0, 3.0))  # v + 2
    e0 = eigenvalues_tridiag(base).eigenvalues
    e1 = eigenvalues_tridiag(shifted).eigenvalues
    assert np.max(np.abs(e1 - (e0 + 1.0))) < 1e-12


def test_gap_ids_invariant_under_shift():
    word = fibonacci_word(12)
    g0 = detect_gaps(eigenvalues_tridiag(build_chain(word, OnsiteModel(0.0, 1.0))))
    g1 = detect_gaps(eigenvalues_tridiag(build_chain(word, OnsiteModel(5.0, 6.0))))
    assert [g.ids_value for g in g0] == [g.ids_value for g in g1]


def test_interlacing_against_oracle():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(3, 13))
        word = "".join(rng.choice(["a", "b"], n))
        chain = build_chain(word, OnsiteModel(*rng.uniform(-2, 2, 2)))
        full = brute_force_eigs(chain).eigenvalues
        sub = brute_force_eigs(
            TightBindingChain(chain.onsite[:-1], chain.hopping[:-1])).eigenvalues
        for i in range(n - 1):
            assert full[i] <= sub[i] + 1e-10
            assert sub[i] <= full[i + 1] + 1e-10


def test_detect_gaps_periodic_two_band():
    chain = build_chain("ab" * 100, OnsiteModel(0.0, 2.0))
    spec = eigenvalues_tridiag(chain)
    gaps = detect_gaps(spec, rel_threshold=10.0)
    interior = [g for g in gaps if 0.0 < g.ids_value < 1.0]
    assert len(interior) == 1
    assert interior[0].ids_value == pytest.approx(0.5, abs=1e-12)


def test_detect_gaps_fibonacci_main_ids():
    word = fibonacci_word(14)  # N = 987
    spec = eigenvalues_tridiag(build_chain(word, OnsiteModel(0.0, 1.0)))
    gaps = sorted(detect_gaps(spec, 10.0), key=lambda g: -g.width)
    top2 = sorted(g.ids_value for g in gaps[:2])
    assert abs(top2[0] - (1 - 1 / GOLDEN)) < 2e-3
    assert abs(top2[1] - 1 / GOLDEN) < 2e-3


def test_detect_gaps_infinite_threshold():
    spec = eigenvalues_tridiag(build_chain("ab" * 20, OnsiteModel(0.0, 1.0)))
    assert detect_gaps(spec, rel_threshold=math.inf) == []


@st.composite
def gapped_spectra(draw):
    """Sorted levels: unit-order spacings with up to eight wide ones put in."""
    spacings = draw(st.lists(st.floats(0.5, 1.5), min_size=15, max_size=120))
    for at, width in draw(st.lists(st.tuples(st.integers(0, len(spacings) - 1),
                                             st.floats(20.0, 100.0)), max_size=8)):
        spacings[at] = width
    start = draw(st.floats(-10.0, 10.0))
    return EnergySpectrum(start + np.cumsum([0.0, *spacings]))


@settings(max_examples=200, derandomize=True, deadline=None)
@given(gapped_spectra())
def test_bulk_gaps_merge_only_close_pieces(spectrum):
    levels = spectrum.eigenvalues.tolist()
    pieces = detect_gaps(spectrum)
    merged = bulk_gaps(spectrum)
    at = [levels.index(g.lower) for g in pieces]
    if all(j - i > MAX_STRAYS for i, j in zip(at, at[1:])):
        assert merged == pieces
    for gap in merged:
        assert gap.lower in levels and gap.upper in levels


@pytest.mark.parametrize("threshold", [0.0, -1.0, math.nan])
def test_gap_threshold_must_be_positive(threshold):
    # a threshold of 0 or less would count every spacing, bands included
    spec = eigenvalues_tridiag(build_chain(fibonacci_word(6), OnsiteModel(0.0, 1.0)))
    with pytest.raises(ValueError):
        detect_gaps(spec, threshold)
    with pytest.raises(ValueError):
        bulk_gaps(spec, threshold)


def test_eigenvalues_within_gershgorin():
    chain = build_chain(fibonacci_word(9), OnsiteModel(-1.0, 1.0))
    eigs = eigenvalues_tridiag(chain).eigenvalues * 2
    radius = np.zeros(chain.size)
    radius[:-1] += chain.hopping
    radius[1:] += chain.hopping
    assert eigs[0] >= np.min(chain.onsite - radius) - 1e-9
    assert eigs[-1] <= np.max(chain.onsite + radius) + 1e-9


LIFT_MAX_LETTERS = 800  # longest word the lifted-count property solves and counts
# Shifts nearer than this share of the Gershgorin span to an eigenvalue are
# left out: there the lifted count and the Sturm count answer for differently
# rounded problems (at x = -1.8e-42 on the chain aaa, whose middle level is 0,
# the first pivot's angle rounds onto pi/2), and near a cluster of
# near-degenerate supertile levels the lifted count missed levels up to 1e-8
# away.  The gap scan never counts there: its points are certified in gaps.
LIFT_CLEARANCE = 2.0**-20


@st.composite
def lifted_cases(draw):
    """A primitive rule on two letters, or on two to four projected onto two
    tiles, an order 1-12 whose word has 2..LIFT_MAX_LETTERS letters, a model
    and shifts: hypothesis floats, a grid, the ends of the Gershgorin
    interval and the midpoints between eigenvalues."""
    alphabet = "abcd"[:draw(st.integers(2, 4))]
    images = {c: draw(st.text(alphabet, min_size=1, max_size=4)) for c in alphabet}
    tiles = {}
    if len(alphabet) > 2 or draw(st.booleans()):
        tiles = {c: draw(st.sampled_from("ab")) for c in alphabet}
    rule = SubstitutionRule(tuple(alphabet), images, tiles=tiles)
    if not is_primitive(occurrence_matrix(rule)):
        reject()
    lengths = [{c: 1 for c in alphabet}]
    for _ in range(draw(st.integers(1, 12))):
        last = lengths[-1]
        lengths.append({c: sum(last[x] for x in images[c]) for c in alphabet})
    order = max(k for k, length in enumerate(lengths) if length["a"] <= LIFT_MAX_LETTERS)
    if lengths[order]["a"] < 2:
        reject()
    va, vb = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
    if draw(st.booleans()):
        model = OnsiteModel(va, vb)
    else:
        model = HoppingModel(va, vb, draw(st.floats(0.1, 1.5)))
    appr = approximant(rule, order, model)
    drawn = draw(st.lists(st.floats(appr.lower, appr.upper), max_size=32))
    return rule, order, model, appr, np.concatenate(
        [drawn, np.linspace(appr.lower, appr.upper, 257)])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(lifted_cases())
def test_lifted_free_count_is_the_sturm_count(case):
    # the lifts' free-chain count against the LDL pivot count of the word
    # itself, under both models (the hopping one through Sylvester's law)
    rule, order, model, appr, xs = case
    word = rule.project(expand_word(rule, "a", order))
    assert appr.size == len(word)
    chain = build_chain(word, model)
    levels = 2 * eigenvalues_tridiag(chain).eigenvalues
    xs = np.concatenate([xs, 0.5 * (levels[1:] + levels[:-1])])
    at = np.clip(np.searchsorted(levels, xs), 1, len(levels) - 1)
    clear = np.minimum(np.abs(xs - levels[at - 1]), np.abs(xs - levels[at]))
    xs = xs[clear > LIFT_CLEARANCE * (appr.upper - appr.lower)]
    counts = lifted_counts(appr, xs)
    assert np.array_equal(counts.free, _sturm_count(chain.onsite, chain.hopping**2, xs))
    # a certified approximant count is a count per period
    assert np.all((counts.periodic[counts.certified] >= 0)
                  & (counts.periodic[counts.certified] <= len(word)))


def test_lifted_counts_do_not_depend_on_the_other_shifts():
    appr = approximant(builtin_rule("rudin-shapiro"), 10, OnsiteModel(0.0, 1.0))
    xs = np.linspace(appr.lower, appr.upper, 9001)  # three passes of LIFT_CHUNK
    whole = lifted_counts(appr, xs)
    for part in (xs[::7], xs[4096:4100], xs[-1:]):
        alone = lifted_counts(appr, part)
        at = np.searchsorted(xs, part)
        assert np.array_equal(alone.free, whole.free[at])
        assert np.array_equal(alone.periodic, whole.periodic[at])
        assert np.array_equal(alone.certified, whole.certified[at])


def test_approximant_refuses_what_build_chain_refuses(monkeypatch):
    rule = builtin_rule("fibonacci")
    with pytest.raises(ValueError, match="at least 2 letters"):
        approximant(rule, 0, OnsiteModel(0.0, 1.0))
    three = SubstitutionRule(("a", "b", "c"), {"a": "abc", "b": "a", "c": "b"})
    with pytest.raises(ValueError, match="at most two letters"):
        approximant(three, 2, OnsiteModel(0.0, 1.0))
    # exp(2 eps^2) overflows at eps^2 = 355, the squared bond of two -1 sites
    for eps, refused in ((18.8, False), (18.9, True), (30.0, True)):
        for v_a, v_b in ((-1.0, 0.0), (0.0, 1.0)):
            model = HoppingModel(v_a, v_b, eps)
            for make in (lambda: approximant(rule, 8, model),
                         lambda: build_chain(fibonacci_word(8), model)):
                if refused:
                    with pytest.raises(ValueError, match="overflows exp"):
                        make()
                else:
                    with np.errstate(all="raise"):
                        make()
    unknown = SimpleNamespace(v_a=0.0, v_b=1.0)
    for make in (lambda: approximant(rule, 8, unknown),
                 lambda: build_chain(fibonacci_word(8), unknown)):
        with pytest.raises(TypeError, match="unknown model"):
            make()
    monkeypatch.setenv("APERIODIX_LENGTH_CAP", "100")
    assert approximant(rule, 9, OnsiteModel(0.0, 1.0)).size == 89
    with pytest.raises(LengthLimit):
        approximant(rule, 10, OnsiteModel(0.0, 1.0))
