import math

import numpy as np
import pytest

from aperiodix.geometry import chain_from_rule, chain_to_csv, positions_from_word
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


def test_csv_round_trip():
    chain = chain_from_rule(builtin_rule("fibonacci"), 6)
    text = chain_to_csv(chain)
    assert text.splitlines()[0] == "index,letter,position"
    rows = [line.split(",") for line in text.splitlines()[1:]]
    assert [int(i) for i, _, _ in rows] == list(range(chain.n_atoms))
    assert "".join(letter for _, letter, _ in rows) == chain.tile_letters
    assert np.allclose([float(x) for _, _, x in rows], chain.positions, atol=1e-12)
