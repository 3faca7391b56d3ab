"""First Cech cohomology of one-dimensional substitution tiling spaces.

The hull of a primitive aperiodic substitution is the inverse limit of a
finite cell complex built from collared letters (a letter together with its
radius-R neighbour words).  H^1 of that complex is the integer cokernel of
the vertex coboundary, the substitution acts on it by an integer matrix, and
the Cech H^1 of the hull is the direct limit of that action.  Periodic fixed
points are detected first: their hull is a circle, not an inverse limit of
substitution complexes.

The collared letters are the closure of a few legal words under the
collared substitution, which for a primitive rule is primitive on the legal
collared letters: the closure is exactly the legal collared alphabet
(collar), and cech_h1 and trace_image require primitivity before they collar.

Direct limits of integer matrices are recognised exactly (no floating point)
as sums of Z and Z[1/p] factors where possible; anything else is returned
unrecognised with its raw presentation.  Characteristic polynomials, prime
powers and the Perron root come from exactla as integer coefficients, ints
and Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .errors import NoFixedPoint, Unrecognized
from .exactla import (
    char_factors,
    companion,
    frac_inverse,
    frac_kernel,
    frac_solve,
    has_integer_eigenvalue,
    imat_pow,
    int_det,
    lattice_hnf,
    mat_mul,
    perron_root,
    perron_vector,
    poly_text,
    prime_base,
    saturation,
    smith_normal_form,
    transpose,
)
from .groups import LabelGroup, field_group, localized_group, two_gen_group
from .substitution import (
    SubstitutionRule,
    expansions,
    least_period,
    occurrence_matrix,
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


# -- collaring and fixed points ------------------------------------------------


def collar(rule: SubstitutionRule, radius: int = 1) -> CollaredAlphabet:
    """Collared alphabet and collared substitution, closed under the rule.

    Symbols are triples (u, c, v) with |u| = |v| = radius occurring in the
    language; the image of (u, c, v) reads off the letters of sigma(c) inside
    sigma(u) sigma(c) sigma(v) with their new contexts.

    The seed, legal words, is the first 2 radius + 1 letters of each
    sigma^k(c) at the first level k where all are that long; images of legal
    symbols are legal.  For a primitive rule the collared substitution is
    primitive on the legal symbols (Anderson-Putnam), so the closure of the
    seed is all of them; for others it may miss some.  A growing word gains
    a letter at least every len(alphabet) levels, which bounds the search.
    """
    width = 2 * radius + 1
    levels = islice(expansions(rule, prefix=width), width * len(rule.alphabet) + 1)
    for words in levels:
        if min(len(w) for w in words.values()) == width:
            break
    symbols = {(w[:radius], w[radius], w[radius + 1:])
               for w in words.values() if len(w) == width}

    def image_of(sym):
        u, c, v = sym
        left, mid, right = ("".join(rule.images[x] for x in part) for part in (u, c, v))
        word = left + mid + right
        out = []
        for i in range(len(left), len(left) + len(mid)):
            out.append((word[i - radius:i], word[i], word[i + 1:i + 1 + radius]))
        return out

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

    The fixed point is that of sigma^k (k <= 4).  If it is periodic with
    least period w, then sigma^k(w) = w^m, so the letter counts of w are an
    eigenvector of M^k for the integer m = |sigma^k(w)| / |w|, at most
    max |sigma^k(c)|; with no such integer eigenvalue the answer is None
    exactly, which an irrational Perron root always gives.  Otherwise the
    fixed point is expanded to 2^18 letters, and a period counts if it is at
    most 2^14, a quarter of the 2^16-letter window it shows in, and holds on
    all 2^18 letters (least_period).
    """
    seed, power = _fixed_point_seed(rule)
    m = imat_pow(occurrence_matrix(rule).entries, power)
    if not has_integer_eigenvalue(m, max(map(sum, zip(*m)))):
        return None
    levels = islice(expansions(rule, prefix=FIXED_POINT_PREFIX), 64 * power + 1)
    for step, words in enumerate(levels):
        if step % power == 0 and len(words[seed]) == FIXED_POINT_PREFIX:
            break
    return least_period(words[seed], len(words[seed]) // 16)


def _fixed_point_seed(rule: SubstitutionRule) -> tuple[str, int]:
    for power, words in enumerate(islice(expansions(rule), 1, 5), start=1):
        for c in rule.alphabet:
            if words[c][0] == c and len(words[c]) > 1:
                return c, power
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
    abar = _quotient_by_eventual_kernel(a)
    s = len(abar)
    if s == 0:
        return DirectLimitGroup(0, (), presentation, True, note="trivial limit")
    det = int_det(abar)
    if abs(det) == 1:
        return DirectLimitGroup(s, (), presentation, True)

    blocks = []  # (kind, prime, lattice columns, dim)
    for coeffs, mult in char_factors(abar):  # coeffs monic, leading first
        lattice = _factor_block_lattice(abar, coeffs, mult)
        dim = len(lattice[0]) if lattice else 0
        if dim != (len(coeffs) - 1) * mult:
            return DirectLimitGroup(0, (), presentation, False,
                                    note="block dimension mismatch")
        if abs(coeffs[-1]) == 1:
            blocks.append(("free", None, lattice, dim))
            continue
        p = prime_base(abs(coeffs[-1]))
        if p is None:
            return DirectLimitGroup(0, (), presentation, False,
                                    note=f"mixed primes in factor {poly_text(coeffs)}")
        if any(c % p for c in coeffs[1:]):
            return DirectLimitGroup(0, (), presentation, False,
                                    note=f"factor {poly_text(coeffs)} not p-nilpotent mod {p}")
        blocks.append(("loc", p, lattice, dim))

    loc_blocks = [b for b in blocks if b[0] == "loc"]
    if loc_blocks and not _splitting_is_clean(loc_blocks):
        return DirectLimitGroup(0, (), presentation, False,
                                note="cross-prime glue does not split")
    free_rank = sum(dim for kind, _, _, dim in blocks if kind == "free")
    counts: dict[int, int] = {}
    for _, p, _, dim in loc_blocks:
        counts[p] = counts.get(p, 0) + dim
    localized = tuple(sorted(counts.items()))
    return DirectLimitGroup(free_rank, localized, presentation, True)


def _quotient_by_eventual_kernel(a) -> list[list[int]]:
    """Induced integer matrix on Z^n / sat(ker A^n)."""
    kernel = frac_kernel(imat_pow(a, len(a)))
    if not kernel:
        return a
    return _induced_on_quotient(a, saturation(_fraction_columns_to_int(kernel)),
                                "eventual kernel")


def _induced_on_quotient(a, span, name: str) -> list[list[int]]:
    """Matrix that the integer matrix a induces on Z^n / (column span of span).

    The Smith form U span V = D puts the span on the first r = rank
    coordinates of y = U x.  The span must be a direct summand (unit
    invariants) that a maps into itself (U a U^-1 has a zero lower-left
    block); the induced matrix is the trailing block of U a U^-1.
    """
    u, d, _ = smith_normal_form(span)
    rank = sum(1 for i in range(min(len(d), len(d[0]))) if d[i][i] != 0)
    if any(d[i][i] != 1 for i in range(rank)):
        raise ArithmeticError(f"{name} is not a direct summand")
    uinv = [[int(x) for x in row] for row in frac_inverse(u)]
    conj = mat_mul(mat_mul(u, a), uinv)
    if any(conj[i][j] for i in range(rank, len(a)) for j in range(rank)):
        raise ArithmeticError(f"{name} is not invariant under the action")
    return [row[rank:] for row in conj[rank:]]


def _fraction_columns_to_int(vectors) -> list[list[int]]:
    """Fraction row-vectors -> integer matrix whose columns span the same space."""
    cols = []
    for vec in vectors:
        denom = math.lcm(*(x.denominator for x in vec))
        cols.append([int(x * denom) for x in vec])
    return transpose(cols)


def _factor_block_lattice(abar, coeffs, mult) -> list[list[int]]:
    """Saturated lattice of the rational kernel of f(A)^mult (columns), f
    given by its integer coefficients, highest first."""
    n = len(abar)
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


def _splitting_is_clean(loc_blocks) -> bool:
    """Check the divisible part splits as a direct sum across primes.

    W = saturation of the union of the p-block lattices.  Every basis vector
    of W must decompose with each p-component having only p-power
    denominators in its own block basis; then lim(W) = (+)_p Z[1/p]^(m_p).
    """
    stacked = _concat_columns([lattice for _, _, lattice, _ in loc_blocks])
    for target in transpose(saturation(stacked)):
        combo = frac_solve(stacked, target)
        if combo is None:
            return False
        offset = 0
        for _, p, _, dim in loc_blocks:
            for x in combo[offset:offset + dim]:
                denom = x.denominator
                while denom % p == 0:
                    denom //= p
                if denom != 1:
                    return False
            offset += dim
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
            abar = _h1_action_matrix(rule, r)
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
    edges = col.symbols
    # vertices are junction types: (last R letters, next R letters)
    def source(sym):
        u, c, v = sym
        return (u, (c + v)[:radius])

    def target(sym):
        u, c, v = sym
        return ((u + c)[-radius:], v)

    vertices = sorted({source(s) for s in edges} | {target(s) for s in edges})
    vindex = {v: i for i, v in enumerate(vertices)}
    ne, nv = len(edges), len(vertices)
    delta = [[0] * nv for _ in range(ne)]
    for e, sym in enumerate(edges):
        delta[e][vindex[target(sym)]] += 1
        delta[e][vindex[source(sym)]] -= 1

    return _induced_on_quotient(transpose(col.matrix), delta, "coboundary image")


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
    lam, f = perron_root(m.entries)
    if len(f) > 3:
        raise Unrecognized("Perron root is neither rational nor quadratic")
    col = collar(rule, 1)
    if len(f) == 2:
        prime = prime_base(-f[1])
        if prime is None:
            raise Unrecognized(f"composite inflation factor {-f[1]} unsupported")
        [(scale,)] = lattice_hnf(perron_vector(col.matrix, f))
        return localized_group(scale, prime)
    if abs(f[2]) != 1:
        raise Unrecognized("quadratic inflation factor is not a unit")
    freqs = perron_vector(col.matrix, f)
    # 1/lambda of a quadratic unit is an algebraic integer of degree 2, so
    # Z[1/lambda] = Z + Z/lambda: one multiplication closes the lattice
    divided = transpose(mat_mul(frac_inverse(companion(f)), transpose(freqs)))
    return field_group(f, lam, freqs + divided)

