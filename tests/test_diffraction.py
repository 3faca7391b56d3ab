import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from aperiodix import diffraction
from aperiodix.diffraction import (
    classify_spectrum,
    contrast_spectrum,
    contrast_weights,
    fourier_amplitude,
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
    is_primitive,
    occurrence_matrix,
)

GOLDEN = (1 + math.sqrt(5)) / 2
TWO_PI = 2 * math.pi


def unit_chain(n):
    return positions_from_word("a" * n, {"a": 1.0})


def test_amplitude_at_zero_is_n():
    chain = unit_chain(100)
    assert fourier_amplitude(chain, 0.0) == pytest.approx(100.0, abs=1e-9)


def test_amplitude_alternating_cancellation():
    chain = AtomChain(np.array([0.0, 1.0, 2.0, 3.0]), "aaaa", 4.0, 1.0)
    assert fourier_amplitude(chain, math.pi) == pytest.approx(0.0, abs=1e-12)
    assert fourier_amplitude(chain, TWO_PI) == pytest.approx(4.0, abs=1e-12)


def test_structure_factor_grid_validation():
    chain = unit_chain(10)
    with pytest.raises(ValueError):
        structure_factor_grid(chain, 1.0, 0.0, 100)
    with pytest.raises(ValueError):
        structure_factor_grid(chain, 0.0, 1.0, 1)


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
        assert fourier_amplitude(chain, k) == pytest.approx(
            fourier_amplitude(chain, -k), abs=1e-9)
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


def test_classify_builds_each_chain_once(monkeypatch):
    built = []

    def counting_scaled_chain(rule, order):
        built.append(order)
        return scaled_chain(rule, order)

    monkeypatch.setattr(diffraction, "scaled_chain", counting_scaled_chain)
    cls = classify_spectrum(builtin_rule("fibonacci"), orders=(8, 9, 10, 11))
    assert len(cls.peaks) > 1
    assert sorted(built) == [8, 9, 10, 11]


def direct_amplitudes(positions, weights, ks):
    """The oracle: |sum_n w_n exp(-i k x_n)| over every atom, no factorisation."""
    return np.abs((weights[None, :] * np.exp(-1j * np.outer(ks, positions))).sum(axis=1))


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
@given(primitive_rules(), st.integers(0, 6))
def test_supertile_amplitude_equals_direct_sum(rule, order):
    # orders 0 and 1 have m = 0; order 0 has the one-letter coarse word
    chain = scaled_chain(rule, order)
    ks = np.linspace(0.0, 4 * math.pi, 129)
    for weights in (contrast_weights(chain), None):   # contrast and plain
        amp = diffraction._supertile_amplitude(rule, order, chain.positions, weights)
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
    chain, amp = diffraction._contrast_chain(builtin_rule(family), order)
    ks = np.linspace(0.05, 4 * math.pi, 512)
    s_fact = amp(ks) ** 2 / chain.n_atoms
    whole = diffraction._grid_amplitudes(chain.positions, contrast_weights(chain), ks)
    s_direct = np.abs(whole) ** 2 / chain.n_atoms
    assert np.max(np.abs(s_fact - s_direct)) <= 1e-9 * s_direct.max()


def test_grid_determinism():
    chain = scaled_chain(builtin_rule("thue-morse"), 10)
    a = structure_factor_grid(chain, 0.0, 10.0, 777)
    b = structure_factor_grid(chain, 0.0, 10.0, 777)
    assert np.array_equal(a.S, b.S)
