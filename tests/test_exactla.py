import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aperiodix
from aperiodix.exactla import (
    char_factors,
    frac_inverse,
    frac_kernel,
    frac_rref,
    frac_solve,
    identity,
    int_det,
    mat_mul,
    perron_root,
    poly_text,
    prime_base,
)


def test_only_exactla_imports_sympy():
    importers = set()
    for path in Path(aperiodix.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "sympy" for name in names):
                importers.add(path.name)
    assert importers == {"exactla.py"}


square_matrices = st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                       min_size=n, max_size=n))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(square_matrices)
def test_char_factors_multiply_to_the_characteristic_polynomial(a):
    # det(x I - A) at small integers x, read from the factors with their
    # multiplicities: an exact oracle for any factoriser
    n = len(a)
    factors = char_factors(a)
    for x in range(-3, 4):
        product = 1
        for coeffs, mult in factors:
            value = 0
            for c in coeffs:
                value = value * x + c
            product *= value ** mult
        assert product == int_det([[x * (i == j) - a[i][j] for j in range(n)]
                                   for i in range(n)])


def test_char_factors_text_and_multiplicity():
    assert char_factors([[6]]) == [((1, -6), 1)]
    assert char_factors([[2, 0], [0, 2]]) == [((1, -2), 2)]
    assert char_factors([[2, 1], [1, 1]]) == [((1, -3, 1), 1)]
    assert poly_text((1, -6)) == "x - 6"
    assert poly_text((1, -3, 1)) == "x**2 - 3*x + 1"
    assert poly_text((1, 0, -4, 2)) == "x**3 - 4*x + 2"


@pytest.mark.parametrize("n, p", [(2, 2), (8, 2), (9, 3), (12, None), (101, 101),
                                  (2 * 3, None), (1, None)])
def test_prime_base(n, p):
    assert prime_base(n) == p


def test_perron_root_is_one_fraction():
    lam, f = perron_root(((1, 1), (1, 0)))
    assert f == (1, -1, -1)
    assert isinstance(lam, Fraction)
    assert abs(lam * lam - lam - 1) < Fraction(1, 10**38)
    assert perron_root(((1, 1), (2, 0))) == (Fraction(2), (1, -2))


# -- rational elimination ---------------------------------------------------


def fraction_rref(a):
    """Gauss-Jordan in Fractions: the oracle of the integer-only frac_rref."""
    m = [[Fraction(x) for x in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def rank(a):
    return len(fraction_rref(a)[1])


@st.composite
def int_matrices(draw, max_rows=8, max_cols=9):
    """Integer matrices up to 8 x 9, empty ones included; rank-deficient
    ones (rows built from other rows) and zero columns are drawn on purpose."""
    rows = draw(st.integers(0, max_rows))
    cols = draw(st.integers(1, max_cols))
    entries = st.integers(-6, 6)
    m = []
    for _ in range(rows):
        if m and draw(st.booleans()):
            i, j = draw(st.integers(0, len(m) - 1)), draw(st.integers(0, len(m) - 1))
            p, q = draw(entries), draw(entries)
            m.append([p * x + q * y for x, y in zip(m[i], m[j])])
        else:
            m.append(draw(st.lists(entries, min_size=cols, max_size=cols)))
    for c in draw(st.sets(st.integers(0, cols - 1), max_size=cols)):
        for row in m:
            row[c] = 0
    return m


@settings(max_examples=300, derandomize=True, deadline=None)
@given(int_matrices())
def test_frac_rref_equals_fraction_gauss_jordan(a):
    rref, pivots = frac_rref(a)
    expected, expected_pivots = fraction_rref(a)
    assert pivots == expected_pivots
    assert rref == expected
    assert all(type(x) is Fraction for row in rref for x in row)


def test_frac_rref_of_empty_and_zero_matrices():
    assert frac_rref([]) == ([], [])
    assert frac_rref([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [])
    assert frac_rref([[2, 4], [1, 3]]) == ([[1, 0], [0, 1]], [0, 1])
    assert frac_solve([[1, 2], [2, 4]], [1, 3]) is None
    assert frac_solve([[1, 2], [2, 4]], [1, 2]) == [1, 0]


@st.composite
def unimodular_matrices(draw):
    """Products of integer row operations: random matrices of determinant +-1."""
    n = draw(st.integers(1, 6))
    m = identity(n)
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            q = draw(st.integers(-3, 3))
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return m


@settings(max_examples=100, derandomize=True, deadline=None)
@given(unimodular_matrices())
def test_frac_inverse_of_a_unimodular_matrix(a):
    inverse = frac_inverse(a)
    assert mat_mul(a, inverse) == identity(len(a))
    assert all(x.denominator == 1 for row in inverse for x in row)


def test_frac_inverse_refuses_a_singular_matrix():
    with pytest.raises(ZeroDivisionError):
        frac_inverse([[1, 2], [2, 4]])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(int_matrices())
def test_frac_kernel_vectors_are_annihilated(a):
    kernel = frac_kernel(a)
    if a:
        assert len(kernel) == len(a[0]) - rank(a)
    for v in kernel:
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in a)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(int_matrices().filter(bool), st.data())
def test_frac_solve_is_none_exactly_when_inconsistent(a, data):
    b = data.draw(st.lists(st.integers(-6, 6), min_size=len(a), max_size=len(a)))
    x = frac_solve(a, b)
    consistent = rank(a) == rank([row + [y] for row, y in zip(a, b)])
    assert (x is not None) == consistent
    if x is not None:
        assert [sum(p * q for p, q in zip(row, x)) for row in a] == b
