"""Exact integer and rational linear algebra.

Everything here takes and returns Python ints and fractions.Fraction, so the
cohomology and trace-group computations never touch floating point.  The
rational solvers (frac_rref, frac_kernel, frac_solve, frac_inverse) take
integer matrices and eliminate over ints, fraction-free; only the finished
pivot rows become Fractions.  An element of a number field Q(lambda) of
degree d is a rational vector of its coordinates in the power basis
lambda^(d-1), ..., lambda, 1 (highest power first, like a coefficient list);
multiplication by lambda is the companion matrix of lambda's minimal
polynomial, and a finitely generated subgroup is the Hermite normal form of
its generators (lattice_hnf).  The Perron eigenvectors of a primitive
integer matrix have entries in Q(lambda1), so perron_vector finds them
exactly; letter frequencies, tile lengths and the collared patch
frequencies of the trace image all come from it, and values_at evaluates
such coordinates at the Perron root.

This is the package's one sympy module.  char_factors (the factored
characteristic polynomial), prime_base (the prime-power test) and
perron_root (the Perron root as one Fraction and its minimal polynomial)
hand out only ints and Fractions, and poly_text prints a factor for the
notes that quote one, so no other module sees a sympy object.
"""

from __future__ import annotations

import math
from fractions import Fraction

import sympy

from .errors import Unrecognized

IntMatrix = list[list[int]]


def identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    return [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
            for i in range(rows)]


def transpose(a):
    return [list(col) for col in zip(*a)]


def imat_pow(m: IntMatrix, n: int) -> IntMatrix:
    """m^n by repeated squaring."""
    result, base = identity(len(m)), m
    while n > 0:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def int_det(m: IntMatrix) -> int:
    """Exact integer determinant (fraction-free Bareiss)."""
    n = len(m)
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for r in range(k + 1, n):
                if a[r][k] != 0:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """(U, D, V) with U a V = D diagonal, d_1 | d_2 | ..., det U, det V = +-1."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [row[:] for row in a]
    u = identity(rows)
    v = identity(cols)

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        for k in range(cols):
            d[dst][k] += q * d[src][k]
        for k in range(rows):
            u[dst][k] += q * u[src][k]

    def add_col(src, dst, q):
        for row in d:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    while t < min(rows, cols):
        # locate the smallest nonzero entry in the remaining block
        pivot = None
        best = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (best is None or abs(d[i][j]) < best):
                    best = abs(d[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    q = d[i][t] // d[t][t]
                    add_row(t, i, -q)
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    q = d[t][j] // d[t][t]
                    add_col(t, j, -q)
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
            if not dirty:
                # enforce divisibility of the remaining block by the pivot
                for i in range(t + 1, rows):
                    for j in range(t + 1, cols):
                        if d[i][j] % d[t][t] != 0:
                            add_row(i, t, 1)
                            dirty = True
                            break
                    if dirty:
                        break
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return u, d, v


def hermite_column_form(a: IntMatrix) -> IntMatrix:
    """Column-style Hermite normal form of the lattice spanned by the columns.

    Returns an n x r matrix whose columns are the canonical lattice basis
    (pivot entries positive, entries to their right reduced).  Column order is
    by pivot row, so equal lattices give identical output.
    """
    n = len(a)
    work = [row[:] for row in a]
    ncols = len(work[0]) if n else 0
    col = 0
    for row in range(n):
        if col >= ncols:
            break
        # gcd sweep on this row among columns >= col
        while True:
            nz = [j for j in range(col, ncols) if work[row][j] != 0]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(work[row][j]))
            for r in range(n):
                work[r][col], work[r][jmin] = work[r][jmin], work[r][col]
            if all(work[row][j] % work[row][col] == 0 for j in range(col + 1, ncols)):
                for j in range(col + 1, ncols):
                    q = work[row][j] // work[row][col]
                    if q:
                        for r in range(n):
                            work[r][j] -= q * work[r][col]
                break
            for j in range(col + 1, ncols):
                q = work[row][j] // work[row][col]
                if q:
                    for r in range(n):
                        work[r][j] -= q * work[r][col]
        if work[row][col] != 0:
            if work[row][col] < 0:
                for r in range(n):
                    work[r][col] = -work[r][col]
            # reduce earlier columns against this pivot
            for j in range(col):
                q = work[row][j] // work[row][col]
                if q:
                    for r in range(n):
                        work[r][j] -= q * work[r][col]
            col += 1
    kept = [[work[r][j] for j in range(col)] for r in range(n)]
    return kept


def frac_rref(a) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Q of an integer matrix; returns (rref,
    pivot columns).

    Elimination runs over Python ints (fraction-free, as in Bareiss): a row
    is cleared by pivot * row - factor * pivot_row and divided by its gcd.
    Only at the end is each pivot row divided by its pivot into Fractions,
    which gives the one reduced echelon form of the row space.
    """
    m = [list(row) for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot_row = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        pivot, top = m[r][c], m[r]
        for i in range(rows):
            factor = m[i][c]
            if i != r and factor != 0:
                row = [pivot * x - factor * y for x, y in zip(m[i], top)]
                g = math.gcd(*row)
                m[i] = [x // g for x in row] if g > 1 else row
        pivots.append(c)
        r += 1
        if r == rows:
            break
    rref = [[Fraction(x, m[i][c]) for x in m[i]] for i, c in enumerate(pivots)]
    rref += [[Fraction(0)] * cols for _ in range(rows - len(pivots))]
    return rref, pivots


def frac_kernel(a) -> list[list[Fraction]]:
    """Basis of the right kernel over Q of an integer matrix."""
    if not a:
        return []
    cols = len(a[0])
    rref, pivots = frac_rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][f]
        basis.append(vec)
    return basis


def frac_solve(a, b):
    """One solution over Q of a x = b (integer a and b), or None if
    inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    rref, pivots = frac_rref([list(a[i]) + [b[i]] for i in range(rows)])
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = rref[r][cols]
    return x


def frac_inverse(a):
    """Exact inverse over Q of a square integer matrix."""
    n = len(a)
    aug = [list(a[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    rref, pivots = frac_rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in rref]


def saturation(columns: IntMatrix) -> IntMatrix:
    """Basis (as columns) of the saturation of the column span inside Z^n.

    The saturation is (Q-span of the columns) intersected with Z^n; it is the
    smallest pure sublattice containing the input.
    """
    n = len(columns)
    if n == 0 or not columns[0]:
        return [[] for _ in range(n)]
    u, d, _v = smith_normal_form(columns)
    rank = sum(1 for i in range(min(n, len(d[0]))) if d[i][i] != 0)
    uinv = frac_inverse(u)
    basis = [[int(uinv[r][i]) for i in range(rank)] for r in range(n)]
    return hermite_column_form(basis)


# -- number fields in power-basis coordinates --------------------------------

def companion(poly) -> IntMatrix:
    """Matrix of multiplication by a root lambda of the monic poly.

    poly lists the integer coefficients highest first; coordinates are taken
    in the power basis lambda^(d-1), ..., lambda, 1, so lambda times
    (c_(d-1), ..., c_0) is C @ c.
    """
    d = len(poly) - 1
    return [[-poly[i + 1] if j == 0 else int(j == i + 1) for j in range(d)]
            for i in range(d)]


def lattice_hnf(vectors) -> list[tuple[Fraction, ...]]:
    """Canonical basis of the Z-span of rational vectors (Hermite normal form).

    Equal lattices give equal bases: pivots are positive, in increasing
    coordinate order, and entries beside a pivot are reduced below it.
    """
    vectors = [[Fraction(x) for x in v] for v in vectors]
    denom = math.lcm(*(x.denominator for v in vectors for x in v))
    columns = transpose([[int(x * denom) for x in v] for v in vectors])
    return [tuple(Fraction(x, denom) for x in col)
            for col in transpose(hermite_column_form(columns))]


def perron_vector(matrix, poly) -> list[list[Fraction]]:
    """Exact Perron eigenvector of a primitive integer matrix, entries sum 1.

    poly is the minimal polynomial f of the Perron root lambda1 (companion
    layout); each of the n entries comes back as its d power-basis
    coordinates.  M v = lambda1 v reads (M (x) I_d - I_n (x) C) v = 0 with
    C = companion(f), and sum_i v_i = 1 picks the one solution (the Perron
    eigenvalue of a primitive matrix is simple).
    """
    c = companion(poly)
    n, d = len(matrix), len(c)
    rows = [[matrix[i][j] * (k == m) - (i == j) * c[k][m]
             for j in range(n) for m in range(d)] for i in range(n) for k in range(d)]
    rows += [[int(k == m) for _ in range(n) for m in range(d)] for k in range(d)]
    one = [0] * (n * d) + [int(k == d - 1) for k in range(d)]
    v = frac_solve(rows, one)
    if v is None:
        raise Unrecognized("matrix has no Perron kernel vector")
    return [v[i * d:(i + 1) * d] for i in range(n)]


def values_at(coords, root) -> list:
    """Power-basis coordinates (highest power first) evaluated at a root,
    exactly when the root is a Fraction."""
    return [sum(c * root**p for p, c in enumerate(reversed(v))) for v in coords]


# -- polynomials through sympy ------------------------------------------------

def _factor_polys(entries):
    """(sympy Poly, multiplicity) of each irreducible factor over Q of the
    characteristic polynomial, in x, of a square integer matrix."""
    poly = sympy.Matrix([list(row) for row in entries]).charpoly(sympy.Symbol("x"))
    return poly.factor_list()[1]


def char_factors(entries) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factors over Q of the characteristic polynomial of a square
    integer matrix: (integer coefficients highest first, multiplicity)."""
    return [(tuple(int(c) for c in poly.all_coeffs()), mult)
            for poly, mult in _factor_polys(entries)]


def poly_text(coeffs) -> str:
    """A polynomial in x, given by its integer coefficients highest first, as
    sympy prints it: (1, -3, 1) reads "x**2 - 3*x + 1"."""
    return str(sympy.Poly(coeffs, sympy.Symbol("x")).as_expr())


def prime_base(n: int) -> int | None:
    """p when n is a power p^k (k >= 1) of a single prime p, else None."""
    primes = sympy.factorint(n)
    if n > 1 and len(primes) == 1:
        return int(next(iter(primes)))
    return None


def perron_root(entries) -> tuple[Fraction, tuple[int, ...]]:
    """(lambda1, f): the largest real root of the characteristic polynomial.

    lambda1 is the Fraction of the root's 40 nroots digits and f its minimal
    polynomial (monic integer coefficients, highest first).  Each irreducible
    factor's roots are found on its own: nroots does not converge at the
    repeated roots of an unfactored polynomial.
    """
    best = None
    for poly, _ in _factor_polys(entries):
        for root in poly.nroots(n=40):
            if root.is_real and (best is None or root > best[0]):
                best = (root, poly)
    root, poly = best
    return Fraction(str(root)), tuple(int(c) for c in poly.all_coeffs())
