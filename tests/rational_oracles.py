"""The rational H^1 routines that the integer-only path replaced, kept as
oracles: U^-1 by Gauss-Jordan in Fractions, kernels as Fraction vectors
scaled back to ints, and the companion inverse by elimination.  The
elimination is this module's own (fraction_rref), apart from the program's
fraction-free _echelon that it checks.

patch_in(monkeypatch) puts them back into aperiodix.cohomology, so a test
can compare the program's output with and without them.
"""

import math
from fractions import Fraction

import aperiodix.cohomology as cohomology
from aperiodix.exactla import (
    companion,
    hermite_column_form,
    mat_mul,
    smith_normal_form,
    transpose,
)


def fraction_rref(a):
    """Gauss-Jordan in Fractions: (reduced row echelon form over Q, pivot
    columns)."""
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


def frac_inverse(a):
    """Exact inverse over Q of a square integer matrix."""
    n = len(a)
    aug = [list(a[i]) + [int(i == j) for j in range(n)] for i in range(n)]
    rref, pivots = fraction_rref(aug)
    if pivots != list(range(n)):
        raise ZeroDivisionError("matrix is singular")
    return [row[n:] for row in rref]


def frac_kernel(a):
    """Basis of the right kernel over Q of an integer matrix, as Fraction
    row-vectors."""
    if not a:
        return []
    cols = len(a[0])
    rref, pivots = fraction_rref(a)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        vec = [Fraction(0)] * cols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -rref[r][f]
        basis.append(vec)
    return basis


def fraction_columns_to_int(vectors):
    """Fraction row-vectors -> integer matrix whose columns span the same
    space, each scaled by the lcm of its denominators."""
    cols = []
    for vec in vectors:
        denom = math.lcm(*(x.denominator for x in vec))
        cols.append([int(x * denom) for x in vec])
    return transpose(cols)


def kernel_columns(a):
    return fraction_columns_to_int(frac_kernel(a))


def saturation(columns):
    n = len(columns)
    if n == 0 or not columns[0]:
        return [[] for _ in range(n)]
    u, d, _v, _uinv = smith_normal_form(columns)
    rank = sum(1 for i in range(min(n, len(d[0]))) if d[i][i] != 0)
    uinv = frac_inverse(u)
    return hermite_column_form([[int(uinv[r][i]) for i in range(rank)] for r in range(n)])


def induced_on_quotient(a, span, name):
    u, d, _v, _uinv = smith_normal_form(span)
    rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    uinv = [[int(x) for x in row] for row in frac_inverse(u)]
    conj = mat_mul(mat_mul(u, a), uinv)
    if any(conj[i][j] for i in range(rank, len(a)) for j in range(rank)):
        raise ArithmeticError(f"{name} is not invariant under the action")
    return [row[rank:] for row in conj[rank:]]


def companion_inverse(poly):
    return frac_inverse(companion(poly))


ORACLES = {
    "int_kernel": kernel_columns,
    "saturation": saturation,
    "_induced_on_quotient": induced_on_quotient,
    "unit_companion_inverse": companion_inverse,
}


def patch_in(monkeypatch, calls):
    """Replace the integer routines of aperiodix.cohomology by the oracles;
    calls[name] counts each oracle's calls."""
    for name, oracle in ORACLES.items():
        def counted(*args, name=name, oracle=oracle):
            calls[name] = calls.get(name, 0) + 1
            return oracle(*args)
        monkeypatch.setattr(cohomology, name, counted)
