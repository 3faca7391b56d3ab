import ast
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
import sympy
import sympy.polys.factortools
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import aperiodix
from aperiodix.cohomology import _induced_on_quotient, cech_h1, trace_image
from aperiodix.errors import AperiodixError, Unrecognized
from aperiodix.exactla import (
    _echelon,
    char_factors,
    charpoly,
    companion,
    frac_solve,
    identity,
    int_kernel,
    mat_mul,
    perron_root,
    poly_text,
    prime_base,
    saturation,
    smith_normal_form,
    unit_companion_inverse,
)
from aperiodix.substitution import (
    OccurrenceMatrix,
    SubstitutionRule,
    builtin_rule,
    is_primitive,
    occurrence_matrix,
    perron_data,
)

import rational_oracles
from rational_oracles import frac_inverse, frac_kernel, fraction_rref

FAMILIES = ("periodic", "fibonacci", "thue-morse", "period-doubling", "rudin-shapiro")
X = sympy.Symbol("x")


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
    factors = char_factors(charpoly(a))
    for x in range(-3, 4):
        product = 1
        for coeffs, mult in factors:
            value = 0
            for c in coeffs:
                value = value * x + c
            product *= value ** mult
        assert product == sympy.Matrix(n, n, lambda i, j: x * (i == j) - a[i][j]).det()


def test_char_factors_text_and_multiplicity():
    assert char_factors(charpoly([[6]])) == [((1, -6), 1)]
    assert char_factors(charpoly([[2, 0], [0, 2]])) == [((1, -2), 2)]
    assert char_factors(charpoly([[2, 1], [1, 1]])) == [((1, -3, 1), 1)]
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


def echelon_rref(a):
    """The reduced echelon form over Q read off _echelon: each pivot row over
    its pivot, then zero rows."""
    m, pivots = _echelon(a)
    cols = len(a[0]) if a else 0
    rref = [[Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)]
    return rref + [[Fraction(0)] * cols for _ in range(len(a) - len(pivots))], pivots


@settings(max_examples=300, derandomize=True, deadline=None)
@given(int_matrices())
def test_echelon_equals_fraction_gauss_jordan(a):
    m, pivots = _echelon(a)
    assert all(type(x) is int for row in m for x in row)
    assert echelon_rref(a) == fraction_rref(a)


def test_echelon_of_empty_and_zero_matrices():
    assert _echelon([]) == ([], [])
    assert _echelon([[0, 0], [0, 0]]) == ([], [])
    assert echelon_rref([[2, 4], [1, 3]]) == ([[1, 0], [0, 1]], [0, 1])
    assert frac_solve([[1, 2], [2, 4]], [[1], [3]]) is None
    assert frac_solve([[1, 2], [2, 4]], [[1], [2]]) == [[1], [0]]


def unimodular(draw, n):
    """Products of integer row operations: random matrices of determinant +-1."""
    m = identity(n)
    for _ in range(draw(st.integers(0, 3 * n))):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if i == j:
            m[i] = [-x for x in m[i]]
        else:
            q = draw(st.integers(-3, 3))
            m[i] = [x + q * y for x, y in zip(m[i], m[j])]
    return m


@st.composite
def unimodular_matrices(draw):
    return unimodular(draw, draw(st.integers(1, 6)))


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
    x = frac_solve(a, [[y] for y in b])
    consistent = rank(a) == rank([row + [y] for row, y in zip(a, b)])
    assert (x is not None) == consistent
    if x is not None:
        assert [sum(p * q for p, (q,) in zip(row, x)) for row in a] == b


def fraction_solve(a, b):
    """One solution of a x = b by Fraction Gauss-Jordan, free variables 0,
    or None if inconsistent."""
    cols = len(a[0])
    rref, pivots = fraction_rref([row + [y] for row, y in zip(a, b)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = rref[r][cols]
    return x


@settings(max_examples=150, derandomize=True, deadline=None)
@given(int_matrices().filter(bool), st.data())
def test_frac_solve_of_several_right_hand_sides_equals_the_oracle(a, data):
    # consistent columns (images a y) beside arbitrary ones
    k = data.draw(st.integers(1, 4))
    columns = []
    for _ in range(k):
        if data.draw(st.booleans()):
            y = data.draw(st.lists(st.integers(-3, 3), min_size=len(a[0]),
                                   max_size=len(a[0])))
            columns.append([sum(p * q for p, q in zip(row, y)) for row in a])
        else:
            columns.append(data.draw(st.lists(st.integers(-6, 6), min_size=len(a),
                                              max_size=len(a))))
    x = frac_solve(a, [list(row) for row in zip(*columns)])
    expected = [fraction_solve(a, b) for b in columns]
    if None in expected:
        assert x is None
    else:
        assert [list(col) for col in zip(*x)] == expected
        assert all(type(v) is Fraction for row in x for v in row)


# -- the integer H^1 path against its rational oracles ------------------------


@st.composite
def smith_matrices(draw, square=False, rows=None):
    """Integer matrices from 1 x 1 to 7 x 7; rank-deficient ones (a product
    through k < min(rows, cols) columns, k = 0 the zero matrix) are drawn on
    purpose."""
    rows = rows or draw(st.integers(1, 7))
    cols = rows if square else draw(st.integers(1, 7))
    entries = st.integers(-6, 6)
    if draw(st.booleans()):
        return [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(rows)]
    k = draw(st.integers(0, min(rows, cols) - 1))
    left = [draw(st.lists(entries, min_size=k, max_size=k)) for _ in range(rows)]
    right = [draw(st.lists(entries, min_size=cols, max_size=cols)) for _ in range(k)]
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] if k else [0] * cols
            for row in left]


@settings(max_examples=300, derandomize=True, deadline=None)
@given(smith_matrices())
def test_smith_form_returns_the_inverse_of_u(a):
    u, d, v, uinv = smith_normal_form(a)
    assert mat_mul(u, uinv) == identity(len(a))
    assert mat_mul(mat_mul(u, a), v) == d
    assert abs(sympy.Matrix(v).det()) == 1
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    assert all(d[i][j] == 0 for i in range(len(d)) for j in range(len(d[0])) if i != j)
    assert all(x >= 0 for x in diag)
    assert all((x == 0 and y == 0) or (x != 0 and y % x == 0) for x, y in zip(diag, diag[1:]))


def test_smith_form_of_a_dense_matrix_keeps_its_entries_small():
    # reducing row t against a half-cleared column t took 11 s on this
    # matrix, through entries of three million bits
    a = [[-5, 3, 1, 3, -5, 4], [-6, -6, -6, -2, -6, -2], [-2, -4, 2, 1, 3, 5],
         [4, -1, -6, 1, -1, -3], [-3, -1, 5, 5, -6, -6], [1, 2, -3, 0, -4, -4]]
    u, d, v, uinv = smith_normal_form(a)
    assert [d[i][i] for i in range(6)] == [1, 1, 1, 1, 1, 10308]
    assert max(abs(x) for m in (u, v, uinv) for row in m for x in row) < 2**64


@settings(max_examples=300, derandomize=True, deadline=None)
@given(smith_matrices())
def test_int_kernel_saturates_as_the_fraction_oracle(a):
    kernel = int_kernel(a)
    oracle = rational_oracles.kernel_columns(a)
    # the same primitive columns, so the same saturated Hermite form
    assert kernel == oracle
    assert (len(kernel[0]) if kernel else 0) == len(a[0]) - rank(a)
    assert all(sum(x * y for x, y in zip(row, col)) == 0
               for row in a for col in zip(*kernel))
    assert saturation(kernel) == rational_oracles.saturation(oracle)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(smith_matrices(square=True), st.data())
def test_induced_on_quotient_equals_its_frac_inverse_version(a, data):
    n = len(a)
    kernel = int_kernel(a)
    if kernel and data.draw(st.booleans()):
        span = kernel    # invariant, as the eventual kernel
    else:
        span = data.draw(smith_matrices(rows=n))

    def outcome(induced):
        try:
            return induced(a, span, "span")
        except ArithmeticError as exc:
            return str(exc)

    assert outcome(_induced_on_quotient) == outcome(rational_oracles.induced_on_quotient)


@pytest.mark.parametrize("poly", [(1, -1, -1), (1, -3, 1), (1, 0, 1), (1, 5, -1),
                                  (1, -1, 0, -1), (1, 2, -3, 4, 1)])
def test_unit_companion_inverse_is_the_inverse(poly):
    inverse = unit_companion_inverse(poly)
    assert mat_mul(companion(poly), inverse) == identity(len(poly) - 1)
    assert inverse == frac_inverse(companion(poly))


# -- polynomials against sympy's object layer, the oracle ---------------------


def sympy_charpoly(a):
    return sympy.Matrix(a).charpoly(X)


def sympy_char_factors(a):
    """Matrix.charpoly and PurePoly.factor_list: the object-layer path that
    char_factors replaces."""
    return [(tuple(int(c) for c in poly.all_coeffs()), mult)
            for poly, mult in sympy_charpoly(a).factor_list()[1]]


@st.composite
def char_matrices(draw):
    """Integer matrices up to 7 x 7; singular, nilpotent and repeated-eigenvalue
    ones are drawn on purpose, all but the singular ones conjugated by a
    unimodular U."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["random", "singular", "nilpotent", "repeated"]))
    entries = st.integers(-4, 4)
    a = [draw(st.lists(entries, min_size=n, max_size=n)) for _ in range(n)]
    if kind == "singular":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        p = draw(entries)
        a[i] = [p * x for x in a[j]] if i != j else [0] * n
        return a
    if kind == "nilpotent":
        a = [[x if j > i else 0 for j, x in enumerate(row)] for i, row in enumerate(a)]
    elif kind == "repeated":
        # the top-left k x k block B twice on the diagonal, then c I: every
        # root of B is at least double
        k, c = n // 2, draw(entries)
        a = [[a[i % k][j % k] if i // k == j // k < 2 else c * (i == j)
              for j in range(n)] for i in range(n)] if k else [[c]]
    u = unimodular(draw, n)
    return mat_mul(mat_mul(u, a), [[int(x) for x in row] for row in frac_inverse(u)])


@settings(max_examples=200, derandomize=True, deadline=None)
@given(char_matrices())
def test_charpoly_and_factors_equal_sympys(a):
    assert charpoly(a) == [int(c) for c in sympy_charpoly(a).all_coeffs()]
    # factors, their order and their multiplicities
    assert char_factors(charpoly(a)) == sympy_char_factors(a)


IRREDUCIBLES = [
    (1, 0), (1, -1), (1, 1), (1, -2), (1, 3),
    (1, 0, 0, 0, 1), (1, 0, -10, 0, 1),     # reducible mod every prime
    (1, 1, 1), (1, 0, 1), (1, -1, 1), (1, 1, 1, 1, 1), (1, 0, -1, 0, 1),
    (1, -1, 1, -1, 1), (1, 1, 1, 1, 1, 1, 1),  # cyclotomic
    (1, -1, -1), (1, -2, -1), (1, -3, 1), (1, -1, -1, -1), (1, 0, -1, -1),
    (1, -2, 0, -1), (1, -1, 0, 0, -1),        # Pisot
    (1, 0, -2), (1, 0, 0, -2), (1, 0, -50), (1, 0, -51),
    (1, -50, 20, -2), (1, -800, 80, -2),      # two roots 0.025 and 8e-4 apart
]


@st.composite
def block_companions(draw):
    """Block-diagonal companions of known irreducibles, some repeated, at most
    12 x 12, conjugated by a unimodular U; with the product of the blocks'
    polynomials."""
    blocks = draw(st.lists(st.sampled_from(IRREDUCIBLES), min_size=1, max_size=6)
                  .filter(lambda bs: sum(len(b) - 1 for b in bs) <= 12))
    blocks += draw(st.lists(st.sampled_from(blocks), max_size=3)
                   .filter(lambda bs: sum(len(b) - 1 for b in blocks + bs) <= 12))
    n = sum(len(b) - 1 for b in blocks)
    a, at, poly = [[0] * n for _ in range(n)], 0, [1]
    for b in blocks:
        for i, row in enumerate(companion(b)):
            a[at + i][at:at + len(row)] = row
        at += len(b) - 1
        poly = poly_mul(poly, b)
    u = unimodular(draw, n)
    return mat_mul(mat_mul(u, a), [[int(x) for x in row] for row in frac_inverse(u)]), poly


def poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return out


@settings(max_examples=150, derandomize=True, deadline=None)
@given(block_companions())
def test_char_factors_of_block_companions_equal_sympys(case):
    a, poly = case
    factors = char_factors(charpoly(a))
    assert charpoly(a) == poly
    # factors, their order and their multiplicities
    assert factors == [(tuple(int(c) for c in g.all_coeffs()), mult)
                       for g, mult in sympy.Poly(poly, X).factor_list()[1]]
    product = [1]
    for g, mult in factors:
        for _ in range(mult):
            product = poly_mul(product, g)
    assert product == poly


def test_char_factors_refuses_roots_numpy_cannot_separate():
    # x^3 - 2 (10^6 x - 1)^2 has two roots 1.4e-15 apart near 1e-6
    with pytest.raises(Unrecognized, match="^cannot separate the roots of "
                       r"x\*\*3 - 2000000000000\*x\*\*2 \+ 4000000\*x - 2$"):
        char_factors(charpoly(companion((1, -2 * 10**12, 4 * 10**6, -2))))


def test_char_factors_of_nilpotent_and_scalar_matrices():
    assert char_factors(charpoly([[0, 1, 2], [0, 0, 3], [0, 0, 0]])) == [((1, 0), 3)]
    assert char_factors(charpoly([[-2, 0], [0, -2]])) == [((1, 2), 2)]
    assert charpoly([[0, 1], [1, 1]]) == [1, -1, -1]


def mpmath_perron_root(a):
    """(lambda1, f) from sympy's factors and 80-digit mpmath roots: lambda1
    correctly rounded to 40 significant digits, f its factor."""
    with mpmath.workdps(80):
        best = None
        for coeffs, _ in sympy_char_factors(a):
            for z in mpmath.polyroots(coeffs, maxsteps=200, extraprec=200):
                if abs(mpmath.im(z)) < mpmath.mpf(10)**-60:
                    if best is None or mpmath.re(z) > best[0]:
                        best = (mpmath.re(z), coeffs)
        root, coeffs = best
        return Fraction(mpmath.nstr(root, 40, min_fixed=-mpmath.inf,
                                    max_fixed=mpmath.inf)), coeffs


@st.composite
def primitive_matrices(draw):
    n = draw(st.integers(2, 5))
    a = [draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)) for _ in range(n)]
    assume(is_primitive(OccurrenceMatrix(tuple(map(tuple, a)), tuple("abcde"[:n]))))
    return a


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(primitive_matrices())
def test_perron_root_is_the_correctly_rounded_root(a):
    assert perron_root(a) == mpmath_perron_root(a)


def test_perron_root_rounds_where_nroots_misrounds():
    # f = x^3 - 2x^2 + x - 6; lambda1 = 2.53765617169842182070159674700440849900650...,
    # which nroots(n=40) gives as ...4084990 06
    lam, f = perron_root(((1, 0, 2, 0), (1, 1, 0, 0), (0, 2, 0, 1), (1, 0, 0, 1)))
    assert f == (1, -2, 1, -6)
    assert lam == Fraction("2.537656171698421820701596747004408499007")


pieces = st.one_of(st.sampled_from([0, 0, 1, -1]), st.integers(-30, 30))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(pieces, min_size=1, max_size=7))
def test_poly_text_prints_as_sympy(coeffs):
    assert poly_text(coeffs) == str(sympy.Poly(coeffs, X).as_expr())


@pytest.mark.parametrize("coeffs, text", [
    ((0,), "0"), ((0, 0), "0"), ((-5,), "-5"), ((1, 0), "x"), ((-1, 0), "-x"),
    ((-1, 1), "1 - x"), ((-1, -1), "-x - 1"), ((-2, 0, 3), "3 - 2*x**2"),
    ((-1, 3, 0), "-x**2 + 3*x"), ((0, -1, 0, 1), "1 - x**2"),
    ((-3, 2, -1, 1), "-3*x**3 + 2*x**2 - x + 1"),
])
def test_poly_text_examples(coeffs, text):
    assert poly_text(coeffs) == text == str(sympy.Poly(coeffs, X).as_expr())


def guard_rules():
    """The five families and a few seeded random primitive rules."""
    rng = random.Random(20)
    rules = [builtin_rule(family) for family in FAMILIES]
    while len(rules) < 15:
        alphabet = "abcd"[:rng.randint(2, 4)]
        images = {c: "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 4)))
                  for c in alphabet}
        rule = SubstitutionRule(tuple(alphabet), images)
        if is_primitive(occurrence_matrix(rule)):
            rules.append(rule)
    return rules


def invariants(rule):
    results = []
    for fn in (trace_image, cech_h1, lambda r: perron_data(occurrence_matrix(r))):
        try:
            results.append(repr(fn(rule)))
        except AperiodixError as exc:
            results.append(f"{type(exc).__name__}: {exc}")
    return results


def test_hot_path_needs_no_sympy_objects(monkeypatch):
    # the exact layer runs on ints: no Matrix, no Poly, no nroots and no
    # sympy factoriser
    rules = guard_rules()
    expected = [invariants(rule) for rule in rules]

    def refuse(*args, **kwargs):
        raise AssertionError("sympy's object layer reached")

    monkeypatch.setattr(sympy.Poly, "nroots", refuse)
    monkeypatch.setattr(sympy.Poly, "factor_list", refuse)
    monkeypatch.setattr(sympy, "Matrix", refuse)
    monkeypatch.setattr(sympy, "Poly", refuse)
    monkeypatch.setattr(sympy.polys.factortools, "dup_factor_list", refuse)
    for rule in rules[:len(FAMILIES)]:
        trace_image(rule)
        cech_h1(rule)
        perron_data(occurrence_matrix(rule))
    assert [invariants(rule) for rule in rules] == expected
