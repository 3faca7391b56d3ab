import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aperiodix
from aperiodix.exactla import char_factors, int_det, perron_root, prime_base


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
        for coeffs, mult, _ in factors:
            value = 0
            for c in coeffs:
                value = value * x + c
            product *= value ** mult
        assert product == int_det([[x * (i == j) - a[i][j] for j in range(n)]
                                   for i in range(n)])


def test_char_factors_text_and_multiplicity():
    assert char_factors([[6]]) == [((1, -6), 1, "x - 6")]
    assert char_factors([[2, 0], [0, 2]]) == [((1, -2), 2, "x - 2")]
    assert char_factors([[2, 1], [1, 1]]) == [((1, -3, 1), 1, "x**2 - 3*x + 1")]


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
