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

This is the package's one sympy module, and its hot path calls no sympy.
_charpoly is Faddeev-LeVerrier over ints; char_factors factors that int
list itself (Yun's square-free parts, a closed form for quadratics, and
numpy.roots grouped into factors that exact division certifies);
perron_root locates lambda1 with numpy.roots and certifies and rounds it in
integer arithmetic; poly_text prints a factor as sympy does.  The one sympy
call left is sympy.factorint in prime_base, a few microseconds on inflation
factors and constant terms.  Only ints, Fractions and text leave the module.
`import sympy` stays at module level because the benchmark's import metrics
read sympy's import time; it goes once those metrics allow a package without
it, and prime_base then needs trial division.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import combinations

import numpy as np
import sympy

from .errors import Unrecognized

IntMatrix = list[list[int]]


def identity(n: int) -> IntMatrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


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


# -- polynomials ---------------------------------------------------------------

def _charpoly(entries) -> list[int]:
    """det(x I - A) of a square integer matrix: integer coefficients, highest
    first, by Faddeev-LeVerrier.  M_1 = I, c_k = -tr(A M_k) / k and
    M_(k+1) = A M_k + c_k I; each division by k is exact over the ints."""
    n = len(entries)
    coeffs = [1]
    m = identity(n)
    for k in range(1, n + 1):
        m = mat_mul(entries, m)
        c = -sum(m[i][i] for i in range(n)) // k
        coeffs.append(c)
        for i in range(n):
            m[i][i] += c
    return coeffs


def char_factors(entries) -> list[tuple[tuple[int, ...], int]]:
    """Irreducible factors over Q of the characteristic polynomial of a square
    integer matrix: (integer coefficients highest first, multiplicity).

    No sympy: x^j is split off, Yun's algorithm with primitive-PRS gcds on
    int lists gives the square-free parts, and _sqf_factors splits each.
    Factors, multiplicities and their order (the key (length, multiplicity,
    coefficients)) are those of sympy's factor_list, which the tests keep as
    the oracle."""
    f = _charpoly(entries)
    j = len(f) - len(_strip(f[::-1]))
    factors = [((1, 0), j)] if j else []
    for part, mult in _yun(f[:len(f) - j]):
        factors += [(tuple(g), mult) for g in _sqf_factors(part)]
    return sorted(factors, key=lambda item: (len(item[0]), item[1], item[0]))


def _strip(f):
    """f without its leading zeros; the zero polynomial is []."""
    i = next((i for i, c in enumerate(f) if c), len(f))
    return f[i:]


def _derivative(f):
    d = len(f) - 1
    return _strip([c * (d - i) for i, c in enumerate(f[:-1])])


def _primitive(f):
    """f over the gcd of its coefficients, leading coefficient positive."""
    g = math.gcd(*f)
    return [c // g if f[0] > 0 else -c // g for c in f]


def _gcd(f, g):
    """gcd of two integer polynomials, primitive with a positive leading
    coefficient (primitive PRS: pseudo-remainders made primitive)."""
    while g:
        r, lead = f, g[0]
        while len(r) >= len(g):
            c = r[0]
            r = _strip([lead * x - c * y for x, y in zip(r[1:], g[1:])]
                       + [lead * x for x in r[len(g):]])
        f, g = g, r and _primitive(r)
    return _primitive(f)


def _quotient(f, g):
    """f / g for a monic g, or None when g does not divide f."""
    f, n = list(f), len(g) - 1
    for i in range(len(f) - n):
        if f[i]:
            for k in range(1, n + 1):
                f[i + k] -= f[i] * g[k]
    return None if any(f[len(f) - n:]) else f[:len(f) - n]


def _yun(f):
    """Square-free decomposition of a monic f: (part, multiplicity) pairs,
    f = prod part^multiplicity, every part monic, square-free and prime to
    the others (Yun's algorithm; the gcds of monic divisors are monic, so
    every division is by a monic polynomial)."""
    slope = _derivative(f)
    c = _gcd(f, slope)
    w, y = _quotient(f, c), _quotient(slope, c)
    mult = 1
    while len(w) > 1:
        z = _strip([a - b for a, b in zip([0] * (len(w) - len(y)) + y,
                                          [0] + _derivative(w))])
        a = _gcd(w, z)
        if len(a) > 1:
            yield a, mult
        w, y = _quotient(w, a), _quotient(z, a)
        mult += 1


def _sqf_factors(f):
    """Monic irreducible factors of a monic square-free f with f(0) != 0.

    A quadratic is reducible iff its discriminant is a square.  For higher
    degrees the roots are split into the smallest conjugate-closed sets whose
    product rounds to an integer polynomial dividing f exactly.  numpy.roots
    has to separate the roots first: about each root z a disk of radius
    d |f(z) / f'(z)| (f and f' bounded with their float error) holds a root
    of f, and the disks must be disjoint, so each holds one; and a product of
    at most d/2 roots must be within 1/2 of the true product's integers."""
    d = len(f) - 1
    if d < 2:
        return [f]
    if d == 2:
        disc = f[1] ** 2 - 4 * f[2]
        s = math.isqrt(disc) if disc >= 0 else -1
        if s * s != disc:
            return [f]
        return [[1, (f[1] + s) // 2], [1, (f[1] - s) // 2]]
    eps = np.finfo(float).eps
    c = np.array(f, dtype=float)
    if not np.isfinite(c).all():
        raise Unrecognized(f"cannot separate the roots of {poly_text(f)}")
    z = np.roots(c)
    dc = np.polyder(c)
    size = np.abs(z)
    value = np.abs(np.polyval(c, z)) + 8 * d * eps * np.polyval(np.abs(c), size)
    slope = np.abs(np.polyval(dc, z)) - 8 * d * eps * np.polyval(np.abs(dc), size)
    radius = d * value / np.where(slope > 0, slope, np.nan)
    gaps = np.abs(z[:, None] - z) - radius[:, None] - radius
    np.fill_diagonal(gaps, np.inf)
    m = d // 2
    top = np.prod(np.sort(1 + size + radius)[d - m:])
    tol = top * m * ((radius / (1 + size + radius)).max() + 4 * eps)
    if not ((gaps > 0).all() and tol < 0.5):
        raise Unrecognized(f"cannot separate the roots of {poly_text(f)}")
    # units: a real root alone, a complex root with its conjugate (numpy
    # gives the pairs of a real polynomial as exact conjugates)
    units = [(r,) for r in z.real[z.imag == 0]]
    units += [(r, r.conjugate()) for r in z[z.imag > 0]]
    factors = []
    k = 1
    while k <= (len(f) - 1) // 2:
        for chosen in _unit_sets(units, k):
            g = _rounded_product([r for i in chosen for r in units[i]], tol)
            q = g and _quotient(f, g)
            if q:
                factors.append(g)
                f = q
                units = [u for i, u in enumerate(units) if i not in chosen]
                break
        else:
            k += 1
    return factors + [f]


def _unit_sets(units, k):
    """Index sets of units whose sizes (1 or 2 roots) add up to k."""
    for r in range(1, k + 1):
        for chosen in combinations(range(len(units)), r):
            if sum(len(units[i]) for i in chosen) == k:
                yield chosen


def _rounded_product(roots, tol):
    """prod (x - r) as monic integer coefficients if every coefficient is
    within tol of an integer, else None."""
    p = [1]
    for r in roots:
        p = [a - r * b for a, b in zip(p + [0], [0] + p)]
    g = [round(a.real) for a in p]
    return g if all(abs(a - b) <= tol for a, b in zip(p, g)) else None


def has_integer_eigenvalue(entries, top: int) -> bool:
    """Whether an integer r in [1, top] is an eigenvalue of a square integer
    matrix: a root of _charpoly, so a divisor of its last nonzero
    coefficient."""
    f = _strip(_charpoly(entries)[::-1])[::-1]
    return any(f[-1] % r == 0 and _horner(f, r)[0] == 0 for r in range(1, top + 1))


def poly_text(coeffs) -> str:
    """A polynomial in x, given by its integer coefficients highest first, as
    sympy prints it: (1, -3, 1) reads "x**2 - 3*x + 1", (-1, 0, 2) "2 - x**2"."""
    degree = len(coeffs) - 1
    terms = []
    for p, c in enumerate(coeffs):
        if c:
            power = degree - p
            monomial = "x" if power == 1 else f"x**{power}"
            body = str(abs(c)) if power == 0 else (
                monomial if abs(c) == 1 else f"{abs(c)}*{monomial}")
            terms.append((c < 0, body))
    if not terms:
        return "0"
    # sympy's one reordering: a negative term and a positive constant
    # print as "constant - term"
    if len(terms) == 2 and terms[0][0] and not terms[1][0] and coeffs[-1]:
        terms.reverse()
    text = ("-" if terms[0][0] else "") + terms[0][1]
    return text + "".join(f" {'-' if neg else '+'} {body}" for neg, body in terms[1:])


def prime_base(n: int) -> int | None:
    """p when n is a power p^k (k >= 1) of a single prime p, else None."""
    primes = sympy.factorint(n)
    if n > 1 and len(primes) == 1:
        return int(next(iter(primes)))
    return None


ROOT_DIGITS = 40


def _horner(coeffs, t):
    """(f(t), f'(t)) of integer coefficients highest first at an integer t."""
    value = slope = 0
    for c in coeffs:
        slope = slope * t + value
        value = value * t + c
    return value, slope


def _variations(coeffs, shift) -> int:
    """Sign variations of f(x + shift) (Taylor shift by repeated synthetic
    division); by Descartes' rule they bound the roots of f above shift."""
    c = list(coeffs)
    for i in range(len(c) - 1):
        for j in range(1, len(c) - i):
            c[j] += shift * c[j - 1]
    signs = [x > 0 for x in c if x]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _certified_root(factors, which, estimate) -> Fraction | None:
    """The largest real root of factors[which], correctly rounded to
    ROOT_DIGITS significant digits, if it is the largest real root of all the
    factors; None when that cannot be certified.

    With Q = 2 * 10^s, the root times 10^s rounds to n exactly when it lies
    in ((2n - 1)/Q, (2n + 1)/Q).  Each factor g is taken as the integer
    polynomial Q^d g(t/Q), so its signs and Taylor shifts at the bracket's
    ends are exact.  n comes from integer Newton steps; the certificate is a
    sign change of the factor across the bracket, one sign variation of it
    shifted to the bottom and none of every other factor shifted there, so
    the bracket holds the one root of all factors above its bottom."""
    s = max(ROOT_DIGITS - 1 - math.floor(math.log10(abs(estimate or 1))), 0)
    q = 2 * 10**s
    scaled = [[c * q**i for i, c in enumerate(g)] for g in factors]
    f = scaled[which]
    t = round(Fraction(estimate) * q)
    for _ in range(64):
        value, slope = _horner(f, t)
        if not slope:
            return None
        step = value // slope
        t -= step
        if abs(step) <= 1:
            break
    n = (t + 1) // 2
    if _horner(f, 2 * n + 1)[0] < 0:
        n += 1
    elif _horner(f, 2 * n - 1)[0] > 0:
        n -= 1
    bottom = 2 * n - 1
    if not _horner(f, bottom)[0] < 0 < _horner(f, bottom + 2)[0]:
        return None
    if any(_variations(g, bottom) != int(g is f) for g in scaled):
        return None
    return Fraction(n, 10**s)


def perron_root(entries) -> tuple[Fraction, tuple[int, ...]]:
    """(lambda1, f): the largest real root of the characteristic polynomial.

    lambda1 is the Fraction of the root correctly rounded to ROOT_DIGITS = 40
    significant digits and f its minimal polynomial (monic integer
    coefficients, highest first).  numpy.roots of each irreducible factor
    locates it and exact integer arithmetic certifies and refines it
    (_certified_root); a root that cannot be certified is refused.
    """
    factors = [poly for poly, _ in char_factors(entries)]
    candidates = sorted(((z.real, which) for which, g in enumerate(factors)
                         for z in np.roots(g) if abs(z.imag) <= 1e-6 * max(1.0, abs(z))),
                        reverse=True)
    for estimate, which in candidates:
        root = _certified_root(factors, which, float(estimate))
        if root is not None:
            return root, factors[which]
    raise Unrecognized("the Perron root could not be certified")
