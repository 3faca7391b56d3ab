import math
from fractions import Fraction

import pytest

from aperiodix.cutproject import (
    CPParams,
    check_periodicity,
    cp_word,
    golden_conjugate_slope,
    parse_slope,
)

GOLDEN = (1 + math.sqrt(5)) / 2


def test_parse_slope_forms():
    s, exact = parse_slope("2/5")
    assert s == Fraction(2, 5) and exact
    s, exact = parse_slope("0.25")
    assert s == Fraction(1, 4) and exact
    s, exact = parse_slope("1/golden")
    assert not exact
    assert s == golden_conjugate_slope()
    assert abs(float(s) - 1 / GOLDEN) < 1e-15
    # the rational approximant itself carries ~60 correct digits
    err = abs(s * s + s - 1)  # 1/golden solves x^2 + x - 1 = 0
    assert err < Fraction(1, 10**55)


def test_chi_half_slope():
    params = CPParams(Fraction(1, 2))
    for n in range(-6, 7):
        assert cp_word(params, n) == ("a" if n % 2 == 0 else "b")


def test_chi_golden_fibonacci_pattern():
    # direct evaluation of sgn[cos(2 pi n s) - cos(pi s)] at s = 1/golden
    # yields the Fibonacci word abaab over n = 0..4
    params = CPParams.from_text("1/golden")
    assert [cp_word(params, n) for n in range(5)] == ["a", "b", "a", "a", "b"]
    assert cp_word(params, 0, 5) == "abaab"


def test_chi_phason_periodicity():
    params = CPParams.from_text("1/golden", phason=1.25)
    shifted = CPParams.from_text("1/golden", phason=1.25 + 2 * math.pi)
    for n in range(50):
        assert cp_word(params, n) == cp_word(shifted, n)


def test_chi_exact_tie_resolves_positive():
    # s = 2/5: the bracket vanishes exactly at n = 3 mod 5
    params = CPParams(Fraction(2, 5))
    assert cp_word(params, 3) == "a"
    assert cp_word(params, 8) == "a"


def test_cp_word_rational():
    assert cp_word(CPParams(Fraction(1, 2)), 0, 4) == "abab"


def test_cp_word_golden_frequencies():
    params = CPParams.from_text("1/golden")
    word = cp_word(params, 0, 8)
    freq = word.count("a") / 8
    assert abs(freq - 1 / GOLDEN) < 0.15
    word = cp_word(params, 0, 10**4)
    freq = word.count("a") / 10**4
    assert abs(freq - 1 / GOLDEN) < 1e-3


def test_cp_word_rational_periodic():
    params = CPParams(Fraction(2, 5))
    word = cp_word(params, 0, 40)
    assert all(word[i] == word[i + 5] for i in range(35))
    # independent of the starting index
    for n0 in (-7, 3, 11):
        w = cp_word(params, n0, 20)
        assert all(w[i] == w[i + 5] for i in range(15))


def test_check_periodicity_examples():
    assert check_periodicity(CPParams(Fraction(2, 5))) == {"periodic": True, "period": 5}
    assert check_periodicity(CPParams(Fraction(1, 2))) == {"periodic": True, "period": 2}
    result = check_periodicity(CPParams.from_text("1/golden"), horizon=10**4)
    assert result == {"periodic": False, "period": None}


def test_rational_period_is_exactly_q():
    for num, den in ((1, 2), (2, 5), (3, 7), (5, 8), (4, 9)):
        result = check_periodicity(CPParams(Fraction(num, den)), horizon=6 * den)
        assert result["periodic"] and result["period"] == den


def test_phason_gauge_frequencies():
    # letter frequencies are phason-independent in the limit
    freqs = []
    for phi in (0.0, 1.0, 2.0, 3.0):
        word = cp_word(CPParams.from_text("1/golden", phason=phi), 0, 10**5)
        freqs.append(word.count("a") / 10**5)
    assert max(freqs) - min(freqs) < 1e-3


def test_slope_validation():
    with pytest.raises(ValueError):
        CPParams(Fraction(3, 2))
    with pytest.raises(ValueError):
        cp_word(CPParams(Fraction(1, 2)), 0, 0)
    with pytest.raises(ValueError, match="1/0"):
        parse_slope("1/0")
