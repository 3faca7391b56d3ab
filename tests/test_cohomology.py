import json
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

import aperiodix.cohomology as cohomology
from aperiodix import cli
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
from aperiodix.exactla import (
    char_factors,
    charpoly,
    companion,
    identity,
    imat_pow,
    int_kernel,
    mat_mul,
)
from aperiodix.groups import nearest_element
from aperiodix.substitution import (
    OccurrenceMatrix,
    SubstitutionRule,
    builtin_rule,
    expansions,
    is_primitive,
    least_period,
    occurrence_matrix,
    perron_data,
)
import rational_oracles
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


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("radius", [1, 2])
def test_collar_images_spell_the_substitution(family, radius):
    # the image of (u, c, v) is sigma(c) letter by letter, each letter with
    # its context inside sigma(u) sigma(c) sigma(v)
    rule = builtin_rule(family)
    col = collar(rule, radius)
    for (u, c, v), img in zip(col.symbols, col.images):
        word = "".join(rule.images[x] for x in u + c + v)
        start = sum(len(rule.images[x]) for x in u)
        assert ["".join(col.symbols[t]) for t in img] == [
            word[i - radius:i + radius + 1] for i in range(start, start + len(rule.images[c]))]


# -- Smith normal form -------------------------------------------------------

def test_snf_examples():
    _, d, _, _ = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]
    _, d, _, _ = smith_normal_form([[1, 0], [0, 1]])
    assert d == [[1, 0], [0, 1]]
    _, d, _, _ = smith_normal_form([[0]])
    assert d == [[0]]


def test_snf_contract_random():
    rng = random.Random(3)
    for _ in range(60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rng.randint(-8, 8) for _ in range(cols)] for _ in range(rows)]
        u, d, v, uinv = smith_normal_form(a)
        assert mat_mul(mat_mul(u, a), v) == d
        assert mat_mul(u, uinv) == mat_mul(uinv, u) == identity(rows)
        assert abs(sympy.Matrix(u).det()) == 1
        assert abs(sympy.Matrix(v).det()) == 1
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


@pytest.mark.parametrize("a, name", [
    ([[2, 1], [0, 0]], "Z[1/2]"),
    ([[2, 1, 0], [0, 0, 1], [0, 0, 0]], "Z[1/2]"),
    ([[1, 1, 0], [1, 0, 0], [0, 0, 0]], "Z^2"),
    ([[2, 0, 1], [0, 3, 1], [0, 0, 0]], "Z[1/2] ⊕ Z[1/3]"),
    ([[0, 1, 1], [0, 2, 0], [0, 0, 3]], "Z[1/2] ⊕ Z[1/3]"),
])
def test_direct_limit_splits_off_the_eventual_kernel(a, name):
    # x, the factor of the nilpotent part, contributes nothing
    g = direct_limit(a)
    assert g.recognized and g.note == ""
    assert g.structure_name == name


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
        assert sympy.Matrix(u).det() == 1
        conj = mat_mul(mat_mul(u, base), uinv)
        g = direct_limit(conj)
        assert (g.free_rank, g.localized) == (1, ((2, 1),))


# irreducible factors the block matrices are made of: x (nilpotent parts),
# units, prime powers that give Z[1/p] blocks, a mixed prime (6) and factors
# that are not p-nilpotent mod p
BLOCKS = [(1, 0), (1, 0), (1, -1), (1, 1), (1, -1, -1), (1, -2), (1, 2), (1, -3),
          (1, -4), (1, 0, -2), (1, -2, -2), (1, -4, 2), (1, -6), (1, -3, -2)]


@st.composite
def limit_matrices(draw):
    """Integer matrices from 1 x 1 to 6 x 6: random ones, and block upper
    triangular ones with companions of BLOCKS on the diagonal, glued by
    random entries above the blocks."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        return [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(n)]
    blocks = draw(st.lists(st.sampled_from(BLOCKS), min_size=1, max_size=4)
                  .filter(lambda bs: sum(len(b) - 1 for b in bs) <= 6))
    starts = [sum(len(b) - 1 for b in blocks[:k]) for k in range(len(blocks) + 1)]
    n = starts[-1]
    a = [[0] * n for _ in range(n)]
    for b, at, end in zip(blocks, starts, starts[1:]):
        for i, row in enumerate(companion(b), start=at):
            a[i][at:end] = row
            for j in range(end, n):
                a[i][j] = draw(st.integers(-2, 2))
    return a


def unimodular_pair(draw, n):
    """(P, P^-1): a product of integer row operations and its inverse, each
    operation E applied as P <- E P and P^-1 <- P^-1 E^-1."""
    p, pinv = identity(n), identity(n)
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            p[i] = [-x for x in p[i]]
            for row in pinv:
                row[i] = -row[i]
        else:
            c = draw(st.integers(-3, 3))
            p[i] = [x + c * y for x, y in zip(p[i], p[j])]
            for row in pinv:
                row[j] -= c * row[i]
    return p, pinv


def limit_outcome(a):
    try:
        g = direct_limit(a)
    except Unrecognized as exc:
        return str(exc)
    return g.structure_name, g.recognized, g.note


@settings(max_examples=200, derandomize=True, deadline=None)
@given(limit_matrices(), st.data())
def test_direct_limit_is_invariant_under_unimodular_conjugation(a, data):
    p, pinv = unimodular_pair(data.draw, len(a))
    assert mat_mul(p, pinv) == identity(len(a))
    assert limit_outcome(mat_mul(mat_mul(p, a), pinv)) == limit_outcome(a)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(limit_matrices())
def test_quotient_by_the_eventual_kernel_drops_only_the_factor_x(a):
    # charpoly(A-bar) = charpoly(A) / x^j, so A-bar's factors are A's but x
    n = len(a)
    kernel = int_kernel(imat_pow(a, n))
    abar = cohomology._induced_on_quotient(a, kernel, "eventual kernel") if kernel else a
    assert len(abar) == n - (len(kernel[0]) if kernel else 0)
    expected = [(f, mult) for f, mult in char_factors(charpoly(a)) if f != (1, 0)]
    assert char_factors(charpoly(abar)) == expected


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


def expanded_period(rule):
    """The fixed point of sigma^k (k <= 4) expanded to 2^18 letters and its
    least period up to 2^14, or None when the Perron root is irrational: the
    reference of fixed_point_period's integer-eigenvalue certificate."""
    m = occurrence_matrix(rule).entries
    lam = round(max(abs(np.linalg.eigvals(np.array(m, dtype=float)))))
    if sympy.Matrix([[lam * (i == j) - x for j, x in enumerate(row)]
                     for i, row in enumerate(m)]).det():
        return None
    for power in range(1, 5):
        for c in rule.alphabet:
            word = c
            for _ in range(power):
                word = word.translate(str.maketrans(rule.images))
            if word[0] == c and len(word) > 1:
                while len(word) < 2**18:
                    for _ in range(power):
                        word = word.translate(str.maketrans(rule.images))
                return least_period(word[:2**18], 2**14)
    raise NoFixedPoint


@st.composite
def fixed_point_rules(draw):
    if draw(st.integers(0, 2)):
        return draw(primitive_rules(max_letters=4))
    # every image a power of one word holding every letter: a periodic hull
    alphabet = "abcd"[:draw(st.integers(2, 4))]
    u = "".join(draw(st.permutations(alphabet))) + draw(st.text(alphabet, max_size=3))
    return SubstitutionRule(tuple(alphabet),
                            {c: u * draw(st.integers(1, 3)) for c in alphabet})


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(fixed_point_rules())
def test_fixed_point_period_equals_the_expansion(rule):
    try:
        expected = expanded_period(rule)
    except NoFixedPoint:
        with pytest.raises(NoFixedPoint):
            fixed_point_period(rule)
        return
    assert fixed_point_period(rule) == expected


@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow])
@given(fixed_point_rules())
def test_periodic_verdicts_satisfy_the_certificate(rule):
    # the fixed point of sigma^k through the first letter c that sigma^k
    # maps to a longer word beginning with c, expanded here: its p-letter
    # prefix w must have sigma^k(w) = w^m
    try:
        p = fixed_point_period(rule)
    except NoFixedPoint:
        reject()
    if p is None:
        return
    table = str.maketrans(rule.images)
    for power in range(1, 5):
        seeds = [c for c in rule.alphabet
                 if (image := _iterate(c, table, power))[0] == c and len(image) > 1]
        if seeds:
            break
    word = seeds[0]
    while len(word) < p:
        word = _iterate(word, table, power)
    w = word[:p]
    image = _iterate(w, table, power)
    assert len(image) % p == 0
    assert image == w * (len(image) // p)


def _iterate(word, table, times):
    for _ in range(times):
        word = word.translate(table)
    return word


@pytest.mark.parametrize("rule", [
    builtin_rule("fibonacci"),
    SubstitutionRule(("a", "b", "c"), {"a": "ab", "b": "ac", "c": "a"}),
    SubstitutionRule(("a", "b", "c"), {"a": "b", "b": "cb", "c": "a"}),
])
def test_irrational_perron_root_needs_no_expansion(rule, monkeypatch):
    def short_words_only(rule, letters=None, prefix=None):
        if prefix is not None:
            raise AssertionError("a fixed-point prefix was expanded")
        return expansions(rule, letters)

    monkeypatch.setattr(cohomology, "expansions", short_words_only)
    assert fixed_point_period(rule) is None


def test_certificate_reads_the_power_that_fixes_a_letter():
    # a -> bb, b -> a is not primitive: M has eigenvalues +-sqrt(2), but
    # sigma^2 fixes aaaa..., so the integer eigenvalue 2 is M^2's
    rule = SubstitutionRule(("a", "b"), {"a": "bb", "b": "a"})
    assert fixed_point_period(rule) == 1


def test_irrational_perron_root_outweighs_a_period_of_the_prefix():
    # the fixed point of a -> a^25 b, b -> a begins with sigma^4(a) =
    # sigma^3(a)^25 sigma^2(a), so its 2^18-letter prefix has the period
    # |sigma^3(a)| = 16301 <= 2^14; lambda^2 = 25 lambda + 1 is irrational,
    # so the fixed point is Sturmian and has no period
    rule = SubstitutionRule(("a", "b"), {"a": "a" * 25 + "b", "b": "a"})
    word = "a"
    while len(word) < 2**18:
        word = word.translate(str.maketrans(rule.images))
    assert least_period(word[:2**18], 2**14) == 16301
    assert fixed_point_period(rule) is None
    assert trace_image(rule).kind == "two_gen"


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


# -- the integer H^1 path against the rational routines it replaced ------------


def guard_rules(count=30, seed=1):
    """count seeded random primitive rules over two or three letters, images
    of one to four letters."""
    rng = random.Random(seed)
    rules = []
    while len(rules) < count:
        alphabet = "abc"[:rng.randint(2, 3)]
        images = {c: "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                  for c in alphabet}
        rule = {"name": f"random-{len(rules)}", "alphabet": list(alphabet), "images": images}
        if is_primitive(occurrence_matrix(SubstitutionRule(tuple(alphabet), images))):
            rules.append(rule)
    return rules


def cli_outcomes(argvs, capsys):
    """(exit code or exception, stdout, stderr) of each CLI call."""
    outcomes = []
    for argv in argvs:
        try:
            code = cli.main(argv)
        except Exception as exc:   # an uncaught error is an outcome too
            code = f"{type(exc).__name__}: {exc}"
        outcomes.append((code, *capsys.readouterr()))
    return outcomes


def guard_and_family_rules():
    return [builtin_rule(name) for name in FAMILIES] + [
        SubstitutionRule(tuple(rule["alphabet"]), rule["images"]) for rule in guard_rules()]


@pytest.mark.parametrize("radius", [1, 2])
def test_every_coboundary_is_a_direct_summand(radius, monkeypatch):
    # H^1 of a graph is free (Ext(H_0, Z) = 0), so the coboundary image is a
    # direct summand of Z^edges: every nonzero Smith invariant is 1
    spans = []
    induced = cohomology._induced_on_quotient

    def spy(a, span, name):
        spans.append(span)
        return induced(a, span, name)

    monkeypatch.setattr(cohomology, "_induced_on_quotient", spy)
    rules = guard_and_family_rules()
    for rule in rules:
        try:
            cohomology._h1_action_matrix(rule, radius)
        except ArithmeticError:
            pass
    assert len(spans) == len(rules)
    for span in spans:
        _, d, _, _ = smith_normal_form(span)
        invariants = [d[i][i] for i in range(min(len(d), len(d[0])))]
        assert 1 in invariants and set(invariants) <= {0, 1}


def test_cohomology_and_trace_equal_the_rational_oracles(tmp_path, capsys, monkeypatch):
    argvs = []
    for name in FAMILIES:
        argvs += [[command, "--family", name] for command in ("cohomology", "trace")]
    for rule in guard_rules():
        path = tmp_path / f"{rule['name']}.json"
        path.write_text(json.dumps(rule), encoding="utf-8")
        argvs += [[command, "--rule-file", str(path)] for command in ("cohomology", "trace")]
    limits = []
    limit = cohomology.direct_limit

    def spy(a):
        limits.append((a, limit(a)))
        return limits[-1][1]

    monkeypatch.setattr(cohomology, "direct_limit", spy)
    integer = cli_outcomes(argvs, capsys)
    # the rules reach every branch of direct_limit: a nonzero eventual
    # kernel, the unimodular return, a Z[1/p] block and the three refusals
    reached = set()
    for a, g in limits:
        f = charpoly(a)
        s = max(i for i, c in enumerate(f) if c)
        if s < len(a):
            reached.add("kernel")
        if s and abs(f[s]) == 1:
            reached.add("unimodular")
        if g.localized:
            reached.add("Z[1/p]")
        reached.update(note for note in ("mixed primes", "not p-nilpotent", "cross-prime glue")
                       if note in g.note)
    assert reached == {"kernel", "unimodular", "Z[1/p]", "mixed primes", "not p-nilpotent",
                       "cross-prime glue"}
    calls = {}
    rational_oracles.patch_in(monkeypatch, calls)
    assert cli_outcomes(argvs, capsys) == integer
    # every replaced routine was exercised, and some rules were refused
    assert set(calls) == set(rational_oracles.ORACLES)
    assert {code for code, _, _ in integer} >= {0, 1}
