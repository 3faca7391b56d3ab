import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from aperiodix.cohomology import (
    DirectLimitGroup,
    cech_h1,
    collar,
    direct_limit,
    fixed_point_period,
    smith_normal_form,
    trace_image,
)
from aperiodix.errors import NoFixedPoint, NotPrimitive, Unrecognized
from aperiodix.exactla import int_det, mat_mul
from aperiodix.groups import nearest_element
from aperiodix.substitution import (
    OccurrenceMatrix,
    SubstitutionRule,
    builtin_rule,
    is_primitive,
    occurrence_matrix,
    perron_data,
)
from closed_forms import group_for_family

FAMILIES = ("periodic", "fibonacci", "thue-morse", "period-doubling", "rudin-shapiro")


# -- collaring ---------------------------------------------------------------

def test_collar_fibonacci_stable():
    col = collar(builtin_rule("fibonacci"))
    # legal triples of the Fibonacci word: aab, aba, baa, bab
    assert {"".join(s) for s in col.symbols} == {"aab", "aba", "baa", "bab"}
    pd = perron_data(OccurrenceMatrix(col.matrix, tuple("".join(s) for s in col.symbols)))
    assert pd.lambda1 == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-9)


def test_collar_periodic():
    col = collar(builtin_rule("periodic"))
    assert {"".join(s) for s in col.symbols} == {"bab", "aba"}


def test_collar_thue_morse():
    col = collar(builtin_rule("thue-morse"))
    assert col.size == 6
    pd = perron_data(OccurrenceMatrix(col.matrix, tuple("".join(s) for s in col.symbols)))
    assert pd.lambda1 == pytest.approx(2.0, abs=1e-9)


def test_collar_terminates_on_words_that_stay_short():
    # no word of a -> b, b -> a ever reaches three letters; a -> a never grows
    assert collar(SubstitutionRule(("a", "b"), {"a": "b", "b": "a"})).size == 0
    rule = SubstitutionRule(("a", "b"), {"a": "a", "b": "ab"})
    assert {"".join(s) for s in collar(rule, 2).symbols} <= {"aaaaa", "aaaab"}


def test_collar_column_sums_match_image_lengths():
    for name in FAMILIES:
        col = collar(builtin_rule(name))
        for j, img in enumerate(col.images):
            assert sum(col.matrix[i][j] for i in range(col.size)) == len(img)


# -- Smith normal form -------------------------------------------------------

def test_snf_examples():
    _, d, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]
    _, d, _ = smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]
    _, d, _ = smith_normal_form([[0]])
    assert d == [[0]]


def test_snf_contract_random():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        u, d, v = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert abs(int_det(u)) == 1
        assert abs(int_det(v)) == 1
        diag = [d[i][i] for i in range(min(rows, cols))]
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)


# -- direct limits -----------------------------------------------------------

def test_direct_limit_unimodular():
    g = direct_limit([[1, 1], [1, 0]])
    assert g == DirectLimitGroup(2, (), ((1, 1), (1, 0)), True)
    assert g.structure_name == "Z^2"


def test_direct_limit_doubling():
    g = direct_limit([[2]])
    assert (g.free_rank, g.localized) == (0, ((2, 1),))
    assert g.structure_name == "Z[1/2]"


def test_direct_limit_identity():
    g = direct_limit([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert (g.free_rank, g.localized) == (3, ())


def test_direct_limit_zero_and_nilpotent():
    assert direct_limit([[0]]).free_rank == 0
    assert direct_limit([[0, 1], [0, 0]]).free_rank == 0


def test_direct_limit_mixed_block():
    # eigenvalues 2 and 1: Z[1/2] (+) Z
    g = direct_limit([[2, 1], [0, 1]])
    assert (g.free_rank, g.localized) == (1, ((2, 1),))


def test_direct_limit_cross_prime_glue_unrecognized():
    # eigenvalues 2 and 5 with eigenlattice of index 3: the limit is a
    # genuinely indecomposable rank-2 group, not Z[1/2] (+) Z[1/5]
    g = direct_limit([[4, -1], [-2, 3]])
    assert not g.recognized


def test_direct_limit_split_two_primes():
    g = direct_limit([[2, 0], [0, 3]])
    assert g.recognized
    assert (g.free_rank, g.localized) == (0, ((2, 1), (3, 1)))


def test_direct_limit_conjugation_invariant():
    rng = random.Random(5)
    base = [[2, 1], [0, 1]]
    for _ in range(20):
        # random unimodular conjugator from elementary operations
        u = [[1, 0], [0, 1]]
        for _ in range(4):
            q = rng.randint(-3, 3)
            if rng.random() < 0.5:
                u = mat_mul(u, [[1, q], [0, 1]])
            else:
                u = mat_mul(u, [[1, 0], [q, 1]])
        uinv = [[u[1][1], -u[0][1]], [-u[1][0], u[0][0]]]
        assert int_det(u) == 1
        conj = mat_mul(mat_mul(u, base), uinv)
        g = direct_limit(conj)
        assert (g.free_rank, g.localized) == (1, ((2, 1),))


# -- Cech H1 (Table 1 values) ------------------------------------------------

EXPECTED_H1 = {
    "periodic": (1, ()),
    "fibonacci": (2, ()),
    "thue-morse": (1, ((2, 1),)),
    "period-doubling": (1, ((2, 1),)),
    "rudin-shapiro": (1, ((2, 3),)),
}


@pytest.mark.parametrize("family", FAMILIES)
def test_cech_h1_table(family):
    g = cech_h1(builtin_rule(family))
    assert g.recognized
    assert (g.free_rank, g.localized) == EXPECTED_H1[family]


def test_cech_h1_rank_matches_nonzero_eigenvalues():
    # rank over Q of H1 equals the count of nonzero eigenvalues of the
    # induced matrix on its eventual image
    for family in ("fibonacci", "thue-morse", "period-doubling"):
        g = cech_h1(builtin_rule(family))
        mat = sympy.Matrix([list(r) for r in g.presentation])
        nonzero = sum(mult for val, mult in mat.eigenvals().items() if val != 0)
        assert g.free_rank + sum(m for _, m in g.localized) == nonzero


def test_common_unimodular_rank_equals_alphabet():
    g = cech_h1(builtin_rule("fibonacci"))
    assert g.free_rank == len(builtin_rule("fibonacci").alphabet)


def test_fixed_point_period_detection():
    assert fixed_point_period(builtin_rule("periodic")) == 2
    for family in ("fibonacci", "thue-morse", "period-doubling", "rudin-shapiro"):
        assert fixed_point_period(builtin_rule(family)) is None


def _kmp_least_period(word: str) -> int:
    border = [0] * (len(word) + 1)
    k = 0
    for i in range(1, len(word)):
        while k and word[i] != word[k]:
            k = border[k]
        if word[i] == word[k]:
            k += 1
        border[i + 1] = k
    return len(word) - border[-1]


def test_fixed_point_period_needs_a_longer_prefix():
    # sigma^2(a) = (abba)^4, so every sigma^(2k)(a) is a fourth power: each
    # window 16^k long has period 16^k / 4, which the next window breaks
    rule = SubstitutionRule(("a", "b"), {"a": "bbbb", "b": "abba"})
    word = "a"
    while len(word) < 2**18:
        word = "".join(rule.images[c] for c in word)
        word = "".join(rule.images[c] for c in word)
    word = word[:2**18]
    window = word[:2**16]
    assert window[2**14:] == window[:-2**14]
    assert word[2**14:] != word[:-2**14]
    assert _kmp_least_period(word) > 2**16
    assert fixed_point_period(rule) is None


# -- trace image (Table 1 values) ----------------------------------------------

EXPECTED_TRACE_NAME = {
    "periodic": "(1/2)Z",
    "fibonacci": "Z+rho*Z(rho=0.6180339887)",
    "thue-morse": "(1/3)Z[1/2]",
    "period-doubling": "(1/3)Z[1/2]",
    "rudin-shapiro": "Z[1/2]",
}


@pytest.mark.parametrize("family", FAMILIES)
def test_trace_image_table(family):
    group = trace_image(builtin_rule(family))
    assert group.canonical_name == EXPECTED_TRACE_NAME[family]
    assert group == group_for_family(family)


@pytest.mark.parametrize("family", FAMILIES)
def test_trace_group_contains_one(family):
    assert nearest_element(1.0, trace_image(builtin_rule(family)))[1] <= 1e-9


def test_non_primitive_rules_get_no_invariants():
    # b never reaches a: no power of the occurrence matrix is strictly positive
    rule = SubstitutionRule(("a", "b"), {"a": "aab", "b": "b"})
    with pytest.raises(NotPrimitive):
        trace_image(rule)
    with pytest.raises(NotPrimitive):
        cech_h1(rule)


def test_custom_rule_without_cp_counterpart():
    # two-letter rule with det = -2 (Pisot, not unimodular)
    rule = SubstitutionRule(("a", "b"), {"a": "abb", "b": "a"})
    h1 = cech_h1(rule)
    assert h1.recognized and (h1.free_rank, h1.localized) == (1, ((2, 1),))
    assert trace_image(rule).canonical_name == "Z[1/2]"


def test_trace_refuses_lattice_without_primitive_one():
    # lambda = 1 + sqrt(2): the frequency lattice is (1/2)Z + (sqrt(2)/4)Z,
    # which holds the letter frequency 1/2 and is no Z + rho Z
    rule = SubstitutionRule(("a", "b", "c"), {"a": "cbb", "b": "cba", "c": "b"})
    freqs = perron_data(occurrence_matrix(rule)).freq
    assert 0.5 in np.round(freqs, 12)
    with pytest.raises(Unrecognized):
        trace_image(rule)


@st.composite
def primitive_rules(draw, max_letters=3):
    alphabet = "abcd"[:draw(st.integers(2, max_letters))]
    images = {c: draw(st.text(alphabet, min_size=1, max_size=4)) for c in alphabet}
    rule = SubstitutionRule(tuple(alphabet), images)
    if not is_primitive(occurrence_matrix(rule)):
        reject()
    return rule


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(primitive_rules())
def test_trace_image_holds_one_and_letter_frequencies(rule):
    vals, vecs = np.linalg.eig(occurrence_matrix(rule).array())
    k = int(np.argmax(vals.real))
    lam = vals[k].real
    freq = vecs[:, k].real / vecs[:, k].real.sum()
    # a quadratic unit solves x^2 - t x + n = 0 with t an integer and n = +-1
    quadratic_unit = abs(lam - round(lam)) > 1e-9 and any(
        abs(lam + n / lam - round(lam + n / lam)) < 1e-9 for n in (1, -1))
    try:
        group = trace_image(rule)
    except Unrecognized as exc:
        assert not quadratic_unit or "not primitive" in str(exc)
        return
    except NoFixedPoint:
        reject()
    assert nearest_element(1.0, group)[1] <= 1e-9
    for f in freq:
        assert nearest_element(float(f), group)[1] <= 1e-9
    if quadratic_unit:
        assert group.kind == "two_gen"


def _factors_letter_by_letter(rule, width, length=20000):
    """Every width-letter factor of sigma^n(c), each letter c expanded one
    letter at a time until it is at least `length` long."""
    factors = set()
    for c in rule.alphabet:
        word = c
        while len(word) < length:
            word = "".join(rule.images[x] for x in word)
        factors |= {word[i:i + width] for i in range(len(word) - width + 1)}
    return factors


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(primitive_rules(max_letters=4))
def test_collar_symbols_are_the_legal_factors(rule):
    for radius in (1, 2):
        col = collar(rule, radius)
        assert ({"".join(s) for s in col.symbols}
                == _factors_letter_by_letter(rule, 2 * radius + 1))


def test_tribonacci_h1_free_trace_unsupported():
    from aperiodix.errors import Unrecognized

    rule = SubstitutionRule(("a", "b", "c"), {"a": "ab", "b": "c", "c": "a"})
    h1 = cech_h1(rule)
    # unimodular cubic Pisot: free of rank = alphabet size
    assert h1.recognized and (h1.free_rank, h1.localized) == (3, ())
    with pytest.raises(Unrecognized):
        trace_image(rule)  # cubic Perron root is outside the supported kinds
