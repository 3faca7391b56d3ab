import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from aperiodix.errors import LengthLimit, NotPrimitive
from aperiodix.exactla import imat_pow
from aperiodix.substitution import (
    BUILTIN_RULES,
    LENGTH_CAP_ENV,
    OccurrenceMatrix,
    SubstitutionRule,
    builtin_rule,
    expand_word,
    is_primitive,
    occurrence_matrix,
    perron_data,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def test_occurrence_matrix_fibonacci():
    m = occurrence_matrix(builtin_rule("fibonacci"))
    assert m.entries == ((1, 1), (1, 0))


def test_occurrence_matrix_thue_morse():
    m = occurrence_matrix(builtin_rule("thue-morse"))
    assert m.entries == ((1, 1), (1, 1))


def test_occurrence_matrix_identity_like():
    rule = SubstitutionRule(("a", "b"), {"a": "a", "b": "b"})
    assert occurrence_matrix(rule).entries == ((1, 0), (0, 1))


def test_occurrence_matrix_columns_sum_to_image_lengths():
    for rule in BUILTIN_RULES.values():
        m = occurrence_matrix(rule)
        for j, letter in enumerate(rule.alphabet):
            assert sum(m.entries[i][j] for i in range(m.size)) == len(rule.images[letter])


def test_perron_fibonacci_closed_form():
    pd = perron_data(occurrence_matrix(builtin_rule("fibonacci")))
    assert pd.lambda1 == pytest.approx(GOLDEN, abs=1e-12)
    assert pd.freq[0] == pytest.approx(1 / GOLDEN, abs=1e-12)
    assert pd.freq[1] == pytest.approx(1 - 1 / GOLDEN, abs=1e-12)
    assert pd.lengths[1] == 1.0
    assert pd.lengths[0] == pytest.approx(GOLDEN, abs=1e-12)


def test_perron_data_is_exact():
    # equal tiles come out equal, and the golden tile correctly rounded
    rs = perron_data(occurrence_matrix(builtin_rule("rudin-shapiro")))
    assert rs.lengths.tolist() == [1.0, 1.0, 1.0, 1.0]
    fib = perron_data(occurrence_matrix(builtin_rule("fibonacci")))
    assert fib.lengths[0] == (1 + math.sqrt(5)) / 2


@st.composite
def primitive_matrices(draw):
    alphabet = "abcd"[:draw(st.integers(2, 4))]
    images = {c: draw(st.text(alphabet, min_size=1, max_size=4)) for c in alphabet}
    m = occurrence_matrix(SubstitutionRule(tuple(alphabet), images))
    if not is_primitive(m):
        reject()
    return m


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(primitive_matrices())
def test_perron_data_agrees_with_numpy_eig(m):
    pd = perron_data(m)
    arr = m.array()
    vals, vecs = np.linalg.eig(arr)
    k = int(np.argmax(vals.real))
    freq = vecs[:, k].real / vecs[:, k].real.sum()
    vals_t, vecs_t = np.linalg.eig(arr.T)
    lengths = np.abs(vecs_t[:, int(np.argmax(vals_t.real))].real)  # one sign
    lengths = lengths / lengths.min()
    assert abs(pd.lambda1 - vals[k].real) <= 1e-12 * pd.lambda1
    assert np.max(np.abs(pd.freq - freq)) <= 1e-12
    assert np.max(np.abs(pd.lengths - lengths) / lengths) <= 1e-12


def test_perron_thue_morse():
    # closed-form 2x2 eigenproblem: lambda = 2, 0
    pd = perron_data(occurrence_matrix(builtin_rule("thue-morse")))
    assert pd.lambda1 == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(pd.freq, [0.5, 0.5], atol=1e-12)


def test_perron_period_doubling():
    pd = perron_data(occurrence_matrix(builtin_rule("period-doubling")))
    assert pd.lambda1 == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(pd.freq, [2 / 3, 1 / 3], atol=1e-12)


def test_perron_rejects_imprimitive():
    rule = SubstitutionRule(("a", "b"), {"a": "a", "b": "b"})
    with pytest.raises(NotPrimitive):
        perron_data(occurrence_matrix(rule))


def test_perron_eigen_residuals():
    for rule in BUILTIN_RULES.values():
        m = occurrence_matrix(rule)
        pd = perron_data(m)
        arr = m.array()
        assert np.max(np.abs(arr @ pd.freq - pd.lambda1 * pd.freq)) < 1e-10
        assert np.max(np.abs(pd.lengths @ arr - pd.lambda1 * pd.lengths)) < 1e-10
        assert abs(pd.freq.sum() - 1.0) < 1e-12
        assert np.all(pd.freq > 0)


def test_expand_word_examples():
    fib = builtin_rule("fibonacci")
    assert expand_word(fib, "a", 3) == "abaab"
    assert expand_word(fib, "b", 0) == "b"
    assert expand_word(builtin_rule("thue-morse"), "a", 2) == "abba"


def test_expand_word_length_cap(monkeypatch):
    monkeypatch.setenv(LENGTH_CAP_ENV, "1000")
    with pytest.raises(LengthLimit):
        expand_word(builtin_rule("thue-morse"), "a", 30)


def _expand_letter_by_letter(rule, seed, order):
    word = seed
    for _ in range(order):
        word = "".join(rule.images[c] for c in word)
    return word


@st.composite
def rules_seeds_orders(draw):
    alphabet = "abcd"[:draw(st.integers(2, 4))]
    images = {c: draw(st.text(alphabet, min_size=1, max_size=4)) for c in alphabet}
    rule = SubstitutionRule(tuple(alphabet), images)
    return rule, draw(st.sampled_from(alphabet)), draw(st.integers(0, 9))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(rules_seeds_orders())
def test_expand_word_matches_letter_by_letter(case):
    rule, seed, order = case
    word = _expand_letter_by_letter(rule, seed, order)
    assert expand_word(rule, seed, order) == word
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv(LENGTH_CAP_ENV, str(len(word)))
        assert expand_word(rule, seed, order) == word
        mp.setenv(LENGTH_CAP_ENV, str(len(word) - 1))
        with pytest.raises(LengthLimit):
            expand_word(rule, seed, order)


def test_expand_word_builds_only_the_letters_it_reaches():
    # c is never reached from a, so its 4^40-letter word is not built
    rule = SubstitutionRule(("a", "b", "c"), {"a": "ab", "b": "b", "c": "cccc"})
    assert expand_word(rule, "a", 40) == "a" + "b" * 40


def test_word_lengths_match_matrix_powers():
    for name in ("fibonacci", "thue-morse", "period-doubling", "rudin-shapiro"):
        rule = builtin_rule(name)
        m = occurrence_matrix(rule)
        for n in range(16):
            w = expand_word(rule, rule.alphabet[0], n)
            power = imat_pow([list(r) for r in m.entries], n)
            assert len(w) == sum(power[i][0] for i in range(m.size))


def test_fibonacci_lengths_shift_recurrence():
    # |sigma^n(a)| = F_{n+2} exactly
    fib = builtin_rule("fibonacci")
    seq = [0, 1]
    while len(seq) < 23:
        seq.append(seq[-1] + seq[-2])
    for n in range(21):
        assert len(expand_word(fib, "a", n)) == seq[n + 2]


def test_frequency_convergence_rate():
    # error <= C * (lambda2/lambda1)^n with decreasing error for Pisot rules
    for name in ("fibonacci", "period-doubling"):
        rule = builtin_rule(name)
        m = occurrence_matrix(rule)
        pd = perron_data(m)
        errors = []
        for n in range(5, 16):
            word = expand_word(rule, rule.alphabet[0], n)
            counts = Counter(word)
            err = max(abs(counts[c] / len(word) - pd.freq[i])
                      for i, c in enumerate(rule.alphabet))
            errors.append(err)
        ratio = sorted(np.abs(np.linalg.eigvals(m.array())))[-2] / pd.lambda1
        c0 = errors[0] / ratio**5
        for n, err in zip(range(5, 16), errors):
            assert err <= 4 * c0 * ratio**n + 1e-12
        assert all(e1 > e2 - 1e-12 for e1, e2 in zip(errors, errors[1:]))


def test_rule_from_json():
    fib = '{"name": "fibonacci", "alphabet": ["a", "b"], "images": {"a": "ab", "b": "a"}}'
    assert SubstitutionRule.from_json(fib) == builtin_rule("fibonacci")
    rs = json.dumps({"name": "rudin-shapiro", "alphabet": ["A", "B", "C", "D"],
                     "images": {"A": "AB", "B": "AC", "C": "DB", "D": "DC"},
                     "tiles": {"A": "a", "B": "b", "C": "a", "D": "b"}})
    assert SubstitutionRule.from_json(rs) == builtin_rule("rudin-shapiro")


def test_rule_validation():
    with pytest.raises(ValueError):
        SubstitutionRule(("a", "b"), {"a": "ab", "b": ""})
    with pytest.raises(ValueError):
        SubstitutionRule(("a", "b"), {"a": "ac", "b": "a"})
    with pytest.raises(ValueError):
        SubstitutionRule(("a", "a"), {"a": "aa"})


@pytest.mark.parametrize("tile", ["ab", ""])
def test_tile_values_are_single_characters(tile):
    # project() maps one letter to its tile value: one site per letter
    with pytest.raises(ValueError, match="exactly one character"):
        SubstitutionRule(("a", "b"), {"a": "ab", "b": "a"}, tiles={"a": tile, "b": "b"})


def test_rudin_shapiro_projection():
    rs = builtin_rule("rudin-shapiro")
    assert rs.project("ABACABDB") == "abaaabbb"


def test_rudin_shapiro_sign_identities():
    # the built-in 4-letter rule reproduces the classic +-1 sequence
    # eps_n = (-1)^(number of '11' pairs in binary n): letters {A,B} carry
    # eps_n directly, and the a/b tile projection carries eps_n * (-1)^n
    rs = builtin_rule("rudin-shapiro")
    word = expand_word(rs, "A", 10)
    tiles = rs.project(word)

    def eps(n):
        bits = bin(n)[2:]
        pairs = sum(1 for i in range(len(bits) - 1) if bits[i] == bits[i + 1] == "1")
        return (-1) ** pairs

    for n in range(1024):
        assert (1 if word[n] in "AB" else -1) == eps(n)
        assert (1 if tiles[n] == "a" else -1) == eps(n) * (-1) ** n


def test_custom_occurrence_matrix_example():
    # matrix quoted with the sigma(a)=a^alpha b^beta layout; as a count matrix
    # its frequency vector is (2/3, 1/3) all the same
    m = OccurrenceMatrix(((1, 1), (2, 0)), ("a", "b"))
    pd = perron_data(m)
    assert pd.lambda1 == pytest.approx(2.0, abs=1e-12)
