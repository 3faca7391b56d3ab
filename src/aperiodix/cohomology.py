"""First Cech cohomology of one-dimensional substitution tiling spaces.

The hull of a primitive aperiodic substitution is the inverse limit of a
finite cell complex built from collared letters (a letter together with its
radius-R neighbour words).  H^1 of that complex is the integer cokernel of
the vertex coboundary, the substitution acts on it by an integer matrix, and
the Cech H^1 of the hull is the direct limit of that action.  Periodic fixed
points are detected first: their hull is a circle, not an inverse limit of
substitution complexes.

Direct limits of integer matrices are recognised exactly (no floating point)
as sums of Z and Z[1/p] factors where possible; anything else is returned
unrecognised with its raw presentation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy

from .errors import NoFixedPoint, Unrecognized
from .exactla import (
    companion,
    frac_inverse,
    frac_kernel,
    frac_matrix,
    frac_solve,
    lattice_hnf,
    mat_mul,
    perron_vector,
    saturation,
    smith_normal_form,
    transpose,
)
from .groups import LabelGroup, field_group, localized_group, two_gen_group
from .substitution import (
    OccurrenceMatrix,
    SubstitutionRule,
    char_poly,
    imat_pow,
    int_det,
    least_period,
    occurrence_matrix,
    perron_root,
    require_primitive,
)

FIXED_POINT_PREFIX = 2**18

__all__ = [
    "CollaredAlphabet",
    "DirectLimitGroup",
    "cech_h1",
    "collar",
    "direct_limit",
    "fixed_point_period",
    "smith_normal_form",
    "trace_image",
]


@dataclass(frozen=True)
class CollaredAlphabet:
    """Letters decorated with their radius-R contexts, plus the induced rule."""

    radius: int
    symbols: tuple[tuple[str, str, str], ...]   # (left word, letter, right word)
    images: tuple[tuple[int, ...], ...]         # collared image as symbol indices
    matrix: tuple[tuple[int, ...], ...]         # count matrix, same orientation as M

    @property
    def size(self) -> int:
        return len(self.symbols)

    def occurrence(self) -> OccurrenceMatrix:
        names = tuple("".join(s) for s in self.symbols)
        return OccurrenceMatrix(self.matrix, names)


@dataclass(frozen=True)
class DirectLimitGroup:
    """Direct limit of Z^n --A--> Z^n --A--> ... in recognised normal form."""

    free_rank: int
    localized: tuple[tuple[int, int], ...]  # (prime, multiplicity), sorted
    presentation: tuple[tuple[int, ...], ...]
    recognized: bool
    note: str = ""

    @property
    def structure_name(self) -> str:
        if not self.recognized:
            return "unrecognized"
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        for p, mult in self.localized:
            parts.append(f"Z[1/{p}]" if mult == 1 else f"Z[1/{p}]^{mult}")
        return " ⊕ ".join(parts) if parts else "0"

    def __eq__(self, other):
        if not isinstance(other, DirectLimitGroup):
            return NotImplemented
        if not (self.recognized and other.recognized):
            return self.presentation == other.presentation
        return (self.free_rank, self.localized) == (other.free_rank, other.localized)

    def __hash__(self):
        return hash((self.free_rank, self.localized, self.recognized))


# -- language enumeration and collaring --------------------------------------


def _legal_factors(rule: SubstitutionRule, length: int) -> set[str]:
    """All length-`length` factors of the substitution language."""
    factors: set[str] = set()
    stable_rounds = 0
    words = {c: c for c in rule.alphabet}
    for _ in range(64):
        words = {c: "".join(rule.images[x] for x in words[c]) for c in rule.alphabet}
        # cap the expansion; factors of a long enough window already repeat
        words = {c: w[:200000] for c, w in words.items()}
        before = len(factors)
        for w in words.values():
            for i in range(len(w) - length + 1):
                factors.add(w[i:i + length])
        if len(factors) == before and min(len(w) for w in words.values()) >= length:
            stable_rounds += 1
            if stable_rounds >= 3:
                break
        else:
            stable_rounds = 0
    return factors


def collar(rule: SubstitutionRule, radius: int = 1) -> CollaredAlphabet:
    """Collared alphabet and collared substitution, closed under the rule.

    Symbols are triples (u, c, v) with |u| = |v| = radius occurring in the
    language; the image of (u, c, v) reads off the letters of sigma(c) inside
    sigma(u) sigma(c) sigma(v) with their new contexts.
    """
    width = 2 * radius + 1
    seed = _legal_factors(rule, width)
    symbols = {(w[:radius], w[radius], w[radius + 1:]) for w in seed}

    def image_of(sym):
        u, c, v = sym
        left, mid, right = ("".join(rule.images[x] for x in part) for part in (u, c, v))
        word = left + mid + right
        out = []
        for i in range(len(left), len(left) + len(mid)):
            out.append((word[i - radius:i], word[i], word[i + 1:i + 1 + radius]))
        return out

    # close under the collared substitution (safety net over the seed set)
    work = list(symbols)
    while work:
        sym = work.pop()
        for child in image_of(sym):
            if child not in symbols:
                symbols.add(child)
                work.append(child)

    ordered = tuple(sorted(symbols))
    index = {s: i for i, s in enumerate(ordered)}
    images = tuple(tuple(index[t] for t in image_of(s)) for s in ordered)
    n = len(ordered)
    matrix = [[0] * n for _ in range(n)]
    for j, img in enumerate(images):
        for i in img:
            matrix[i][j] += 1
    return CollaredAlphabet(radius, ordered, images,
                            tuple(tuple(row) for row in matrix))


def fixed_point_period(rule: SubstitutionRule) -> int | None:
    """Least period of the substitution fixed point, or None if aperiodic.

    A fixed point of sigma^k (k <= 4) is expanded to 2^18 letters; a period
    counts if it is at most 2^14, a quarter of the 2^16-letter window it
    shows in, and holds on all 2^18 letters (least_period).
    """
    seed, power = _fixed_point_seed(rule)
    # sigma^step(c) for every letter c, each cut to the prefix length
    words = {c: c for c in rule.alphabet}
    for step in range(1, 64 * power + 1):
        words = {c: "".join(words[x] for x in rule.images[c])[:FIXED_POINT_PREFIX]
                 for c in rule.alphabet}
        if step % power == 0 and len(words[seed]) == FIXED_POINT_PREFIX:
            break
    return least_period(words[seed], len(words[seed]) // 16)


def _fixed_point_seed(rule: SubstitutionRule) -> tuple[str, int]:
    images = {c: rule.images[c] for c in rule.alphabet}
    for power in range(1, 5):
        for c in rule.alphabet:
            if images[c][0] == c and len(images[c]) > 1:
                return c, power
        images = {c: "".join(rule.images[x] for x in images[c]) for c in rule.alphabet}
    raise NoFixedPoint("no power up to 4 of the substitution fixes a letter")


# -- direct limits ------------------------------------------------------------


def direct_limit(a) -> DirectLimitGroup:
    """Direct limit of the action of an integer matrix on Z^n.

    The eventual kernel is split off first; on the quotient the matrix is
    nonsingular and each irreducible factor f of its characteristic
    polynomial contributes Z^(deg f * mult) when |f(0)| = 1, and
    Z[1/p]^(deg f * mult) when f(0) = +-p^k and f = x^deg mod p.  Explicit
    denominator checks confirm the block splitting is exact; any failure
    returns the raw presentation unrecognised.
    """
    a = [list(row) for row in a]
    presentation = tuple(tuple(row) for row in a)
    n = len(a)
    if n == 0:
        return DirectLimitGroup(0, (), presentation, True)
    abar, s = _quotient_by_eventual_kernel(a)
    if s == 0:
        return DirectLimitGroup(0, (), presentation, True, note="trivial limit")
    det = int_det(abar)
    if abs(det) == 1:
        return DirectLimitGroup(s, (), presentation, True)

    poly = char_poly(abar)
    blocks = []  # (kind, prime, lattice columns, dim)
    for factor, mult in sympy.factor_list(poly.as_expr())[1]:
        fpoly = sympy.Poly(factor, poly.gen)
        deg = fpoly.degree()
        const = int(fpoly.all_coeffs()[-1])
        lattice = _factor_block_lattice(abar, fpoly, mult)
        dim = len(lattice[0]) if lattice else 0
        if dim != deg * mult:
            return DirectLimitGroup(0, (), presentation, False,
                                    note="block dimension mismatch")
        if abs(const) == 1:
            blocks.append(("free", None, lattice, dim))
            continue
        primes = sympy.factorint(abs(const))
        if len(primes) != 1:
            return DirectLimitGroup(0, (), presentation, False,
                                    note=f"mixed primes in factor {factor}")
        p = int(next(iter(primes)))
        coeffs = fpoly.all_coeffs()  # leading first, monic
        if any(int(c) % p for c in coeffs[1:]):
            return DirectLimitGroup(0, (), presentation, False,
                                    note=f"factor {factor} not p-nilpotent mod {p}")
        blocks.append(("loc", p, lattice, dim))

    loc_blocks = [b for b in blocks if b[0] == "loc"]
    if loc_blocks and not _splitting_is_clean(s, loc_blocks):
        return DirectLimitGroup(0, (), presentation, False,
                                note="cross-prime glue does not split")
    free_rank = sum(dim for kind, _, _, dim in blocks if kind == "free")
    counts: dict[int, int] = {}
    for _, p, _, dim in loc_blocks:
        counts[p] = counts.get(p, 0) + dim
    localized = tuple(sorted(counts.items()))
    return DirectLimitGroup(free_rank, localized, presentation, True)


def _quotient_by_eventual_kernel(a) -> tuple[list[list[int]], int]:
    """Induced integer matrix on Z^n / sat(ker A^n), and its size."""
    n = len(a)
    kernel = frac_kernel(imat_pow(a, n))
    if not kernel:
        return [row[:] for row in a], n
    k = len(kernel)
    cols = _fraction_columns_to_int(kernel)
    ker_basis = saturation(cols)  # n x k, columns
    u, d, _ = smith_normal_form(ker_basis)
    for i in range(k):
        if d[i][i] != 1:
            raise ArithmeticError("saturated kernel should have unit invariants")
    uinv = frac_inverse(u)
    uinv_int = [[int(x) for x in row] for row in uinv]
    # y = U x puts the kernel on the first k coordinates; quotient = rest
    ua = mat_mul(u, a)
    uau = mat_mul(ua, uinv_int)
    for i in range(k, n):
        for j in range(k):
            if uau[i][j] != 0:
                raise ArithmeticError("eventual kernel is not invariant")
    abar = [[uau[i][j] for j in range(k, n)] for i in range(k, n)]
    return abar, n - k


def _fraction_columns_to_int(vectors) -> list[list[int]]:
    """Fraction row-vectors -> integer matrix whose columns span the same space."""
    cols = []
    for vec in vectors:
        denom = math.lcm(*(x.denominator for x in vec))
        cols.append([int(x * denom) for x in vec])
    return transpose(cols)


def _factor_block_lattice(abar, fpoly, mult) -> list[list[int]]:
    """Saturated lattice of the rational kernel of f(A)^mult (columns)."""
    n = len(abar)
    coeffs = [int(c) for c in fpoly.all_coeffs()]
    kernel = frac_kernel(imat_pow(_poly_of_matrix(coeffs, abar), mult))
    if not kernel:
        return [[] for _ in range(n)]
    return saturation(_fraction_columns_to_int(kernel))


def _poly_of_matrix(coeffs, m):
    n = len(m)
    out = [[0] * n for _ in range(n)]
    for c in coeffs:
        out = mat_mul(out, m)
        for i in range(n):
            out[i][i] += c
    return out


def _splitting_is_clean(s: int, loc_blocks) -> bool:
    """Check the divisible part splits as a direct sum across primes.

    W = saturation of the union of the p-block lattices.  Every basis vector
    of W must decompose with each p-component having only p-power
    denominators in its own block basis; then lim(W) = (+)_p Z[1/p]^(m_p).
    """
    all_cols = _concat_columns([b[2] for b in loc_blocks])
    w_basis = saturation(all_cols)  # s x w columns
    wdim = len(w_basis[0]) if w_basis else 0
    block_mats = [frac_matrix(b[2]) for b in loc_blocks]
    primes = [b[1] for b in loc_blocks]
    stacked = frac_matrix(_concat_columns([b[2] for b in loc_blocks]))
    for col in range(wdim):
        target = [Fraction(w_basis[r][col]) for r in range(s)]
        combo = frac_solve(stacked, target)
        if combo is None:
            return False
        offset = 0
        for mat, p in zip(block_mats, primes):
            width = len(mat[0]) if mat and mat[0] else 0
            for t in range(offset, offset + width):
                denom = combo[t].denominator
                while denom % p == 0:
                    denom //= p
                if denom != 1:
                    return False
            offset += width
    return True


def _concat_columns(mats) -> list[list[int]]:
    rows = len(mats[0])
    out = [[] for _ in range(rows)]
    for m in mats:
        width = len(m[0]) if m and m[0] else 0
        for r in range(rows):
            out[r].extend(m[r][:width])
    return out


# -- Cech H^1 -----------------------------------------------------------------


def cech_h1(rule: SubstitutionRule, radius: int | None = None) -> DirectLimitGroup:
    """Cech H^1 of the tiling space of a primitive substitution.

    Periodic fixed points give the circle answer Z.  Otherwise the collared
    complex is built (radius 1, re-collared at radius 2 if the induced action
    fails its consistency checks) and the direct limit of the substitution
    action on H^1 of the complex is returned.
    """
    require_primitive(occurrence_matrix(rule))
    period = fixed_point_period(rule)
    if period is not None:
        return DirectLimitGroup(1, (), ((1,),), True,
                                note=f"periodic hull (circle), {period} atoms per cell")
    radii = (radius,) if radius else (1, 2)
    last_error = None
    for r in radii:
        try:
            abar, note = _h1_action_matrix(rule, r)
        except ArithmeticError as exc:
            last_error = exc
            continue
        limit = direct_limit(abar)
        return DirectLimitGroup(limit.free_rank, limit.localized, limit.presentation,
                                limit.recognized,
                                note=f"collar radius {r}" + (f"; {limit.note}" if limit.note else ""))
    raise ArithmeticError(f"collared complex inconsistent at all radii: {last_error}")


def _h1_action_matrix(rule: SubstitutionRule, radius: int):
    """Integer matrix of the substitution action on H^1 of the collared complex."""
    col = collar(rule, radius)
    radius_ = col.radius
    edges = col.symbols
    # vertices are junction types: (last R letters, next R letters)
    def source(sym):
        u, c, v = sym
        return (u, (c + v)[:radius_])

    def target(sym):
        u, c, v = sym
        return ((u + c)[-radius_:], v)

    vertices = sorted({source(s) for s in edges} | {target(s) for s in edges})
    vindex = {v: i for i, v in enumerate(vertices)}
    ne, nv = len(edges), len(vertices)
    delta = [[0] * nv for _ in range(ne)]
    for e, sym in enumerate(edges):
        delta[e][vindex[target(sym)]] += 1
        delta[e][vindex[source(sym)]] -= 1

    u, d, _v = smith_normal_form(delta)
    rank = sum(1 for i in range(min(ne, nv)) if d[i][i] != 0)
    for i in range(rank):
        if d[i][i] != 1:
            raise ArithmeticError("coboundary image is not a direct summand")

    at = transpose([list(row) for row in col.matrix])
    uinv = [[int(x) for x in row] for row in frac_inverse(u)]
    conj = mat_mul(mat_mul(u, at), uinv)
    for i in range(rank, ne):
        for j in range(rank):
            if conj[i][j] != 0:
                raise ArithmeticError("substitution action does not preserve im(delta)")
    abar = [[conj[i][j] for j in range(rank, ne)] for i in range(rank, ne)]
    return abar, f"H1 rank {ne - rank}"


# -- trace image --------------------------------------------------------------


def trace_image(rule: SubstitutionRule) -> LabelGroup:
    """Image in R of the cohomology trace (patch-frequency module).

    Generated by lambda1^(-k) times the collared letter frequencies, which
    lie in Q(lambda1): each is held as its rational coordinates in the power
    basis of lambda1's minimal polynomial f (exactla), so the computation is
    exact rational arithmetic.  For a quadratic unit lambda1 the module is a
    lattice recognised as Z + rho Z; for an integer prime power
    lambda1 = p^j it is a Z[1/p] scaled by the frequencies' gcd.
    """
    m = require_primitive(occurrence_matrix(rule))
    period = fixed_point_period(rule)
    if period is not None:
        return two_gen_group(Fraction(1, period))
    lam, f, _ = perron_root(m)
    if len(f) > 3:
        raise Unrecognized("Perron root is neither rational nor quadratic")
    col = collar(rule, 1)
    if len(f) == 2:
        primes = sympy.factorint(-f[1])
        if len(primes) != 1:
            raise Unrecognized(f"composite inflation factor {-f[1]} unsupported")
        [(scale,)] = lattice_hnf(perron_vector(col.matrix, f))
        return localized_group(scale, int(next(iter(primes))))
    if abs(f[2]) != 1:
        raise Unrecognized("quadratic inflation factor is not a unit")
    freqs = perron_vector(col.matrix, f)
    # 1/lambda of a quadratic unit is an algebraic integer of degree 2, so
    # Z[1/lambda] = Z + Z/lambda: one multiplication closes the lattice
    divided = transpose(mat_mul(frac_inverse(companion(f)), transpose(freqs)))
    return field_group(f, lam, freqs + divided)

