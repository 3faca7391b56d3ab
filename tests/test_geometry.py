import math

import numpy as np
import pytest

from aperiodix.errors import TooShort
from aperiodix.geometry import (
    AtomChain,
    chain_from_csv,
    chain_from_rule,
    chain_to_csv,
    fluctuation_stats,
    positions_from_word,
)
from aperiodix.diffraction import scaled_chain
from aperiodix.substitution import (
    SubstitutionRule,
    builtin_rule,
    expand_word,
    occurrence_matrix,
    perron_data,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def test_positions_unit_lengths():
    chain = positions_from_word("ab", {"a": 1.0, "b": 1.0})
    assert np.allclose(chain.positions, [0.0, 1.0])
    assert chain.total_length == 2.0


def test_positions_fibonacci_order4():
    chain = positions_from_word("abaab", {"a": GOLDEN, "b": 1.0})
    expected = [0.0, GOLDEN, GOLDEN + 1, 2 * GOLDEN + 1, 3 * GOLDEN + 1]
    assert np.allclose(chain.positions, expected, atol=1e-12)


def test_positions_triple_a():
    chain = positions_from_word("aaa", {"a": 2.0})
    assert np.allclose(chain.positions, [0.0, 2.0, 4.0])


def test_positions_rejects_bad_lengths():
    with pytest.raises(ValueError):
        positions_from_word("ab", {"a": 1.0, "b": 0.0})


def test_mean_spacing_matches_perron_average():
    for name in ("fibonacci", "thue-morse", "period-doubling"):
        rule = builtin_rule(name)
        pd = perron_data(occurrence_matrix(rule))
        chain = chain_from_rule(rule, 10)
        assert abs(chain.mean_spacing - float(pd.freq @ pd.lengths)) < 1e-9


def test_projected_letters_keep_their_own_lengths():
    # a, b, c project onto the tiles a, b, b; b and c have different Perron
    # lengths, so a projected chain must not give c the length of b
    rule = SubstitutionRule(("a", "b", "c"), {"a": "abc", "b": "ab", "c": "a"},
                            tiles={"a": "a", "b": "b", "c": "b"})
    pd = perron_data(occurrence_matrix(rule))
    chain = chain_from_rule(rule, 8)
    assert chain.tile_letters == rule.project(expand_word(rule, "a", 8))
    # |sigma^n(a)| with Perron lengths is exactly lambda^n d_a
    exact = pd.lambda1 ** 8 * pd.lengths[0] / float(pd.freq @ pd.lengths)
    scaled = scaled_chain(rule, 8)
    assert abs(scaled.total_length / exact - 1) < 1e-12
    # the measured mean spacing differs from 1 only by the finite word's
    # boundary term, O(|lambda2 / lambda1|^n)
    assert abs(scaled.total_length / scaled.n_atoms - 1) < 1e-3


def test_fluctuations_periodic_zero():
    chain = positions_from_word("ab" * 50, {"a": 1.0, "b": 1.0})
    stats = fluctuation_stats(chain, mean_spacing=1.0)
    assert stats.delta_u_raw == 0.0
    assert stats.delta_u == 0.0


def test_fluctuations_fibonacci_quasiperiodic():
    chain = chain_from_rule(builtin_rule("fibonacci"), 16)
    stats = fluctuation_stats(chain)
    assert abs(stats.delta_u - 1.0) < 0.05


def test_fluctuations_rudin_shapiro_beta():
    # beta = ln|lambda2| / ln lambda1 = ln sqrt(2) / ln 2 = 1/2
    chain = chain_from_rule(builtin_rule("rudin-shapiro"), 12,
                            lengths={"a": 1.0, "b": 2.0})
    stats = fluctuation_stats(chain)
    assert abs(stats.beta_fit - 0.5) < 0.1


def test_fluctuations_too_short():
    chain = positions_from_word("ab", {"a": 1.0, "b": 1.0})
    with pytest.raises(TooShort):
        fluctuation_stats(chain)


def test_u_translation_invariant():
    chain = chain_from_rule(builtin_rule("fibonacci"), 10)
    stats = fluctuation_stats(chain)
    shifted = AtomChain(chain.positions + 7.25, chain.tile_letters,
                        chain.total_length, chain.mean_spacing)
    stats2 = fluctuation_stats(shifted)
    assert abs((stats2.u.max() - stats2.u.min()) - (stats.u.max() - stats.u.min())) < 1e-9
    assert abs(stats2.delta_u_raw - stats.delta_u_raw) < 1e-9


def test_fibonacci_sup_bounded_over_orders():
    # Pisot unimodular: no growth trend in sup |u_n|
    sups = []
    for order in range(6, 17, 2):
        chain = chain_from_rule(builtin_rule("fibonacci"), order)
        stats = fluctuation_stats(chain)
        sups.append(np.abs(stats.u).max())
    xs = np.log([len(chain_from_rule(builtin_rule("fibonacci"), o).positions)
                 for o in range(6, 17, 2)])
    slope = np.polyfit(xs, np.log(sups), 1)[0]
    assert abs(slope) < 0.05


def test_classification_pipeline_with_measured_delta_u():
    # the geometry module feeds delta_u into the substitution classifier
    from aperiodix.geometry import normalized_delta_u
    from aperiodix.substitution import classify_substitution

    fib = builtin_rule("fibonacci")
    cls = classify_substitution(fib, normalized_delta_u(fib, order=14))
    assert cls.quasiperiodic and cls.common_unimodular
    tm = builtin_rule("thue-morse")
    cls = classify_substitution(tm, normalized_delta_u(tm, order=12))
    assert not cls.quasiperiodic


def test_csv_round_trip():
    chain = chain_from_rule(builtin_rule("fibonacci"), 6)
    text = chain_to_csv(chain)
    assert text.splitlines()[0] == "index,letter,position"
    again = chain_from_csv(text)
    assert again.tile_letters == chain.tile_letters
    assert np.allclose(again.positions, chain.positions, atol=1e-12)
