import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from aperiodix import diffraction, geometry
from aperiodix.diffraction import (
    classify_spectrum,
    contrast_spectrum,
    contrast_weights,
    module_distance,
    peak_scaling,
    scaled_chain,
    structure_factor_grid,
)
from aperiodix.geometry import AtomChain, positions_from_word
from aperiodix.groups import localized_group
from aperiodix.substitution import (
    SubstitutionRule,
    builtin_rule,
    expansions,
    is_primitive,
    occurrence_matrix,
    perron_data,
)

GOLDEN = (1 + math.sqrt(5)) / 2
TWO_PI = 2 * math.pi


def unit_chain(n):
    return positions_from_word("a" * n, {"a": 1.0})


def amplitude(chain, k):
    """|sum_n exp(-i k x_n)|, read off the structure-factor grid that starts at k."""
    return math.sqrt(structure_factor_grid(chain, k, k + 1.0, 2).S[0] * chain.n_atoms)


def test_amplitude_at_zero_is_n():
    chain = unit_chain(100)
    assert amplitude(chain, 0.0) == pytest.approx(100.0, abs=1e-9)


def test_amplitude_alternating_cancellation():
    chain = AtomChain(np.array([0.0, 1.0, 2.0, 3.0]), "aaaa", 4.0, 1.0)
    assert amplitude(chain, math.pi) == pytest.approx(0.0, abs=1e-12)
    assert amplitude(chain, TWO_PI) == pytest.approx(4.0, abs=1e-12)


def test_structure_factor_grid_validation():
    chain = unit_chain(10)
    with pytest.raises(ValueError):
        structure_factor_grid(chain, 1.0, 0.0, 100)
    with pytest.raises(ValueError):
        structure_factor_grid(chain, 0.0, 1.0, 1)
    # each end is finite, the grid's width overflows
    with pytest.raises(ValueError, match="finite"):
        structure_factor_grid(chain, -1e308, 1e308, 16)


def test_periodic_comb():
    chain = unit_chain(100)
    spec = structure_factor_grid(chain, 0.0, 4 * math.pi, 4001)
    assert spec.S[0] == pytest.approx(100.0, abs=1e-9)   # S(0) = N
    # peaks of height N at k = 2 pi m
    for m in (1, 2):
        i = int(np.argmin(np.abs(spec.k_values - TWO_PI * m)))
        assert spec.S[i] == pytest.approx(100.0, abs=1e-6)
    assert np.all(spec.S >= -1e-12)


def test_periodic_comb_tails_small():
    # desk check at N = 256: off-peak tails below 2
    chain = unit_chain(256)
    spec = structure_factor_grid(chain, 0.0, 4 * math.pi, 4096)
    k = spec.k_values
    off = (np.abs(k % TWO_PI) > 0.5) & (np.abs(k % TWO_PI - TWO_PI) > 0.5)
    assert spec.S[off].max() < 2.0


def test_evenness_and_translation_invariance():
    chain = scaled_chain(builtin_rule("fibonacci"), 8)
    for k in (0.7, 2.2, 9.1):
        assert amplitude(chain, k) == pytest.approx(amplitude(chain, -k), abs=1e-9)
    shifted = AtomChain(chain.positions + 3.7, chain.tile_letters,
                        chain.total_length, chain.mean_spacing)
    spec0 = structure_factor_grid(chain, 0.1, 10.0, 64)
    spec1 = structure_factor_grid(shifted, 0.1, 10.0, 64)
    assert np.max(np.abs(spec0.S - spec1.S)) < 1e-10 * chain.n_atoms


def test_fibonacci_plain_peak_near_2pi_tau():
    chain = scaled_chain(builtin_rule("fibonacci"), 12)
    k_tau = TWO_PI * GOLDEN
    spec = structure_factor_grid(chain, k_tau - 0.3, k_tau + 0.3, 601)
    i = int(np.argmax(spec.S))
    assert spec.S[i] / chain.n_atoms > 0.1
    assert 0 < i < len(spec.k_values) - 1  # a local max, not an edge


def test_rudin_shapiro_contrast_flat():
    spec12 = contrast_spectrum(builtin_rule("rudin-shapiro"), 12, 0.05, 4 * math.pi, 2048)
    assert float((spec12.S / spec12.n_atoms).max()) < 0.05
    spec8 = contrast_spectrum(builtin_rule("rudin-shapiro"), 8, 0.05, 4 * math.pi, 2048)
    assert (spec12.S / spec12.n_atoms).max() < (spec8.S / spec8.n_atoms).max()


def test_contrast_weights_sum_zero():
    chain = scaled_chain(builtin_rule("thue-morse"), 8)
    assert abs(contrast_weights(chain).sum()) < 1e-9


def test_peak_scaling_fibonacci_bragg():
    ps = peak_scaling(builtin_rule("fibonacci"), TWO_PI * GOLDEN, range(8, 15))
    assert ps.gamma >= 0.95
    assert ps.classification == "Bragg"


def test_peak_scaling_thue_morse_sc():
    ps = peak_scaling(builtin_rule("thue-morse"), TWO_PI / 3, range(8, 15))
    assert abs(ps.gamma - (math.log2(3) - 1)) < 0.08
    assert ps.classification == "SingularContinuous"
    # amplitudes at the thirds peak follow 3^(order/2)/2 exactly
    for order, amp in zip(ps.orders, ps.amplitudes):
        assert amp >= 0.5 * 3 ** (order / 2) - 1e-6


def test_peak_scaling_periodic_generic_k_flat():
    ps = peak_scaling(builtin_rule("periodic"), 2.0, (6, 8, 10, 12))
    assert ps.classification == "Flat"


def test_peak_scaling_needs_four_orders():
    with pytest.raises(ValueError):
        peak_scaling(builtin_rule("fibonacci"), 1.0, (8, 9, 10))


def test_classify_fibonacci_pp_only():
    cls = classify_spectrum(builtin_rule("fibonacci"), orders=(8, 10, 12, 14))
    assert set(cls.tags) == {"PP"}
    assert all(p.classification == "Bragg" for p in cls.peaks)


def test_classify_thue_morse_has_sc():
    cls = classify_spectrum(builtin_rule("thue-morse"), orders=(8, 10, 12, 14))
    assert "SC" in cls.tags


def test_classify_rudin_shapiro_ac():
    cls = classify_spectrum(builtin_rule("rudin-shapiro"), orders=(8, 10, 12, 14))
    assert set(cls.tags) == {"AC"}
    assert not cls.peaks


@pytest.mark.parametrize("images", [{"a": "bab", "b": "ab"}, {"a": "b", "b": "aba"}])
def test_classify_pure_point_rule_with_a_bragg_peak_at_the_grid_end(images):
    # the grid's last point, 4 pi, lies in 2 pi Z and holds nearly all of the
    # grid's sum for these rules; it must not set the level peaks rise above
    rule = SubstitutionRule(("a", "b"), images)
    cls = classify_spectrum(rule, orders=(8, 10, 12, 14))
    assert "PP" in cls.tags and "AC" not in cls.tags


def test_classify_period_doubling_dyadic_bragg():
    cls = classify_spectrum(builtin_rule("period-doubling"), orders=(8, 10, 12, 14))
    assert set(cls.tags) == {"PP"}
    module = localized_group(1, 2)  # 2 pi m / 2^N, closed form
    for p in cls.peaks:
        assert module_distance(p.k_star, module, n_max=8) < 2e-2


@pytest.mark.parametrize("family,orders", [("fibonacci", (8, 10, 12, 14)),
                                           ("period-doubling", (6, 7, 8, 9))])
def test_classify_peaks_equal_peak_scaling(family, orders):
    # the shared chains give each peak what peak_scaling gives it alone
    rule = builtin_rule(family)
    cls = classify_spectrum(rule, orders)
    grid = contrast_spectrum(rule, max(orders), 0.05, 4 * math.pi, 2048)
    assert np.array_equal(cls.spectrum.S, grid.S)
    cell = (4 * math.pi - 0.05) / 2047
    assert cls.peaks
    for peak in cls.peaks:
        k_grid = grid.k_values[np.argmin(np.abs(grid.k_values - peak.k_star))]
        assert peak_scaling(rule, float(k_grid), orders,
                            refine_halfwidth=cell / 2) == peak  # bit for bit


def test_classify_zooms_many_peaks_as_each_alone():
    # one amplitude call per zoom round serves every peak of an order
    rule, orders = builtin_rule("thue-morse"), (8, 10, 12, 14)
    cls = classify_spectrum(rule, orders)
    assert len(cls.peaks) >= 3
    ks, cell = cls.spectrum.k_values, (4 * math.pi - 0.05) / 2047
    for peak in cls.peaks:
        k_grid = ks[np.argmin(np.abs(ks - peak.k_star))]
        assert peak_scaling(rule, float(k_grid), orders,
                            refine_halfwidth=cell / 2) == peak  # bit for bit


def test_grid_amplitude_of_a_k_does_not_depend_on_the_grid():
    # 40000 atoms take chunks of 8 k; a 9-point grid would end on a
    # one-column chunk, summed pairwise, if the tail were not folded in
    positions = scaled_chain(builtin_rule("fibonacci"), 23).positions[:40000]
    ks = np.linspace(0.5, 3.0, 9)
    nine = diffraction._grid_amplitudes(positions, None, ks)
    two = diffraction._grid_amplitudes(positions, None, ks[7:])
    assert np.array_equal(nine[7:], two)


def test_classify_builds_each_chain_once(monkeypatch):
    built = []
    contrast_chain = diffraction._contrast_chain

    def counting_contrast_chain(rule, pd, levels, order):
        built.append(order)
        return contrast_chain(rule, pd, levels, order)

    monkeypatch.setattr(diffraction, "_contrast_chain", counting_contrast_chain)
    cls = classify_spectrum(builtin_rule("fibonacci"), orders=(8, 9, 10, 11))
    assert len(cls.peaks) > 1
    assert sorted(built) == [8, 9, 10, 11]


@pytest.mark.parametrize("call", [
    lambda rule: classify_spectrum(rule, orders=(8, 9, 10, 11)),
    lambda rule: peak_scaling(rule, TWO_PI / GOLDEN, range(8, 17))],
    ids=["classify_spectrum", "peak_scaling"])
def test_one_perron_solve_per_call(monkeypatch, call):
    # every order's chain takes its tile lengths from one exact solve
    solves = []

    def counting_perron_data(m):
        solves.append(m)
        return perron_data(m)

    for module in (diffraction, geometry):
        monkeypatch.setattr(module, "perron_data", counting_perron_data)
    call(builtin_rule("fibonacci"))
    assert len(solves) == 1


def direct_amplitudes(positions, weights, ks):
    """The oracle: |sum_n w_n exp(-i k x_n)| over every atom, no factorisation."""
    return np.array([abs((weights * np.exp(-1j * k * positions)).sum()) for k in ks])


def single_grid_amplitudes(positions, ks):
    """structure_factor_grid's kernel as it stood before it took batches of
    windows, kept verbatim as the reference its output must equal bit for bit."""
    samples = len(ks)
    h = (ks[-1] - ks[0]) / (samples - 1)
    n_r = math.isqrt(samples - 1) + 1
    n_q = -(-samples // n_r)
    coarse = ks[0] + (n_r * h) * np.arange(n_q)
    fine = h * np.arange(n_r)
    block = (1 << 18) // (n_q + n_r)
    total = np.zeros((n_q, n_r), dtype=complex)
    for start in range(0, len(positions), block):
        x = positions[start:start + block, None]
        outer = -1j * x * coarse
        inner = -1j * x * fine
        np.exp(outer, out=outer)
        np.exp(inner, out=inner)
        total += np.einsum("jq,jr->qr", outer, inner, optimize=False)
    return total.ravel()[:samples]


@st.composite
def primitive_rules(draw):
    alphabet = "abcd"[:draw(st.integers(2, 4))]
    images = {c: draw(st.text(alphabet, min_size=1, max_size=4)) for c in alphabet}
    tiles = {}
    if draw(st.booleans()):
        tiles = {c: draw(st.sampled_from("ab")) for c in alphabet}
    rule = SubstitutionRule(tuple(alphabet), images, tiles=tiles)
    if not is_primitive(occurrence_matrix(rule)):
        reject()
    return rule


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(primitive_rules(), st.integers(0, 10))
def test_supertile_amplitude_equals_direct_sum(rule, order):
    # orders 0 and 1 have m = 0; order 0 has the one-letter coarse word
    chain = scaled_chain(rule, order)
    levels = list(islice(expansions(rule, rule.alphabet[:1]), order + 1))
    ks = np.linspace(0.0, 4 * math.pi, 129)
    for weights in (contrast_weights(chain), None):   # contrast and plain
        amp = diffraction._supertile_amplitude(rule, levels, order, chain.positions, weights)
        s_fact = amp(ks) ** 2 / chain.n_atoms
        direct = direct_amplitudes(
            chain.positions, np.ones(chain.n_atoms) if weights is None else weights, ks)
        s_direct = direct ** 2 / chain.n_atoms
        assert np.max(np.abs(s_fact - s_direct)) <= 1e-9 * s_direct.max()


@pytest.mark.parametrize("family,order", [
    ("periodic", 14), ("fibonacci", 20), ("thue-morse", 14),
    ("period-doubling", 14), ("rudin-shapiro", 14)])
def test_contrast_amplitude_equals_whole_chain_sum(family, order):
    # the diffraction benchmark's orders; the whole-chain sum is the oracle
    chain, amp = diffraction._contrast_chains(builtin_rule(family), (order,))[order]
    ks = np.linspace(0.05, 4 * math.pi, 512)
    s_fact = amp(ks) ** 2 / chain.n_atoms
    whole = diffraction._grid_amplitudes(chain.positions, contrast_weights(chain), ks)
    s_direct = np.abs(whole) ** 2 / chain.n_atoms
    assert np.max(np.abs(s_fact - s_direct)) <= 1e-9 * s_direct.max()


@st.composite
def uniform_grids(draw):
    """Sorted random positions and a uniform grid, k_min of either sign."""
    n = draw(st.integers(1, 300))
    positions = np.sort(np.array(draw(st.lists(
        st.floats(0.0, 500.0), min_size=n, max_size=n))))
    # 2, 3, perfect squares, and any count up to 2100, most of them no
    # multiple of R = ceil(sqrt(samples)), so the last row of the grid is short
    samples = draw(st.one_of(st.sampled_from([2, 3]),
                             st.integers(2, 45).map(lambda r: r * r),
                             st.integers(4, 2100)))
    k_min = draw(st.floats(-20.0, 20.0))
    return positions, samples, k_min, k_min + draw(st.floats(0.01, 30.0))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(uniform_grids())
def test_structure_factor_grid_equals_direct_sum(grid):
    positions, samples, k_min, k_max = grid
    chain = AtomChain(positions, "a" * len(positions), float(positions[-1]) + 1.0, 1.0)
    spec = structure_factor_grid(chain, k_min, k_max, samples)
    assert np.array_equal(spec.k_values, np.linspace(k_min, k_max, samples))
    direct = direct_amplitudes(positions, np.ones(len(positions)), spec.k_values)
    s_direct = direct ** 2 / chain.n_atoms
    assert np.max(np.abs(spec.S - s_direct)) <= 1e-9 * s_direct.max()
    reference = single_grid_amplitudes(positions, spec.k_values)
    assert np.array_equal(spec.S, np.abs(reference) ** 2 / chain.n_atoms)


def test_structure_factor_grid_over_many_atom_blocks():
    # 40000 atoms on 2048 k take blocks of 2880 atoms: 14 of them, the last short
    positions = scaled_chain(builtin_rule("fibonacci"), 23).positions[:40000]
    chain = AtomChain(positions, "a" * len(positions), float(positions[-1]) + 1.0, 1.0)
    spec = structure_factor_grid(chain, 0.05, 0.05 + 4 * math.pi, 2048)
    probe = [0, 1, 45, 46, 700, 1023, int(np.argmax(spec.S)), 2046, 2047]
    direct = direct_amplitudes(positions, np.ones(len(positions)), spec.k_values[probe])
    s_direct = direct ** 2 / chain.n_atoms
    assert np.max(np.abs(spec.S[probe] - s_direct)) <= 1e-9 * spec.S.max()
    again = structure_factor_grid(chain, 0.05, 0.05 + 4 * math.pi, 2048)
    assert np.array_equal(spec.S, again.S)
    reference = single_grid_amplitudes(positions, spec.k_values)
    assert np.array_equal(spec.S, np.abs(reference) ** 2 / chain.n_atoms)


def test_grid_determinism():
    chain = scaled_chain(builtin_rule("thue-morse"), 10)
    a = structure_factor_grid(chain, 0.0, 10.0, 777)
    b = structure_factor_grid(chain, 0.0, 10.0, 777)
    assert np.array_equal(a.S, b.S)


@st.composite
def window_batches(draw):
    """Sorted random positions, optional weights, and 1-7 uniform windows of
    one count, each window's start of either sign."""
    n = draw(st.integers(1, 300))
    positions = np.sort(np.array(draw(st.lists(
        st.floats(0.0, 500.0), min_size=n, max_size=n))))
    weights = None
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    count = draw(st.sampled_from([2, 3, 65, 2048]))
    windows = draw(st.integers(1, 7))
    starts = np.array(draw(st.lists(st.floats(-20.0, 20.0),
                                    min_size=windows, max_size=windows)))
    widths = np.array(draw(st.lists(st.floats(0.01, 30.0),
                                    min_size=windows, max_size=windows)))
    return positions, weights, starts, starts + widths, count


@settings(max_examples=80, derandomize=True, deadline=None)
@given(window_batches())
def test_window_batch_amplitudes(batch):
    positions, weights, starts, stops, count = batch
    values = diffraction._uniform_grid_amplitudes(positions, weights, starts, stops, count)
    assert values.shape == (len(starts), count)
    plain = np.ones(len(positions)) if weights is None else weights
    for j, (a, b) in enumerate(zip(starts, stops)):
        # a window in a batch is the same window alone, to the last bit
        alone = diffraction._uniform_grid_amplitudes(positions, weights, starts[j:j + 1],
                                                     stops[j:j + 1], count)
        assert np.array_equal(values[j], alone[0])
        ks = np.linspace(a, b, count)
        s_direct = direct_amplitudes(positions, plain, ks) ** 2 / len(positions)
        s_window = np.abs(values[j]) ** 2 / len(positions)
        assert np.max(np.abs(s_window - s_direct)) <= 1e-9 * max(s_direct.max(), 1e-300)


def test_peak_scaling_takes_no_per_k_sum(monkeypatch):
    # every zoom window is a uniform grid, so it takes the factorised sum
    def per_k_sum(*args):
        raise AssertionError("the peak zoom took the per-k sum")

    monkeypatch.setattr(diffraction, "_grid_amplitudes", per_k_sum)
    ps = peak_scaling(builtin_rule("thue-morse"), TWO_PI / 3, range(8, 13))
    assert ps.classification == "SingularContinuous"


@pytest.mark.parametrize("family,order", [("fibonacci", 14), ("period-doubling", 12)])
def test_zoom_windows_equal_the_per_k_sum(family, order):
    # the windows of the supertile amplitude read what its k-vector call reads
    chain, amp = diffraction._contrast_chains(builtin_rule(family), (order,))[order]
    starts, stops = np.array([0.3, 2.1, 3.9]), np.array([0.34, 2.2, 4.0])
    windows = amp.windows(starts, stops, diffraction.ZOOM_POINTS)
    for row, a, b in zip(windows, starts, stops):
        per_k = amp(np.linspace(a, b, diffraction.ZOOM_POINTS))
        assert np.max(np.abs(row ** 2 - per_k ** 2)) <= 1e-9 * (per_k ** 2).max()
