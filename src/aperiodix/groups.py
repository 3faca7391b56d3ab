"""Finitely described additive subgroups of R used to label gaps and Bragg peaks.

Supported kinds: Z + rho Z with rho irrational (two generators), the cyclic
degenerations (1/q)Z, and scaled localisations a Z[1/p].  Membership is only
meaningful with coordinate bounds since Z + rho Z is dense; the bounds mirror
how two-integer labels are read off finite spectra.  An exact Z + rho Z is a
lattice in a real quadratic field Q(lambda), held in the power-basis
coordinates of exactla (field_group), and its rho is the first basis
element evaluated exactly at the Fraction of lambda (exactla.values_at).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Optional

from .errors import Unrecognized
from .exactla import lattice_hnf, values_at

DEFAULT_Q_MAX = 30
DEFAULT_N_MAX = 12


@dataclass(frozen=True)
class LabelGroup:
    """One of (1/q)Z, Z + rho Z, or a Z[1/p]."""

    kind: str  # "cyclic" | "two_gen" | "localized"
    q: int = 1                      # cyclic
    rho: float = 0.0                # two_gen, in (0, 1)
    # two_gen exact: (f, basis), f the minimal polynomial of lambda (monic
    # integer coefficients, highest first) and basis the lattice_hnf basis of
    # the group in the power-basis coordinates (lambda-coefficient, constant)
    lattice: Optional[tuple] = None
    scale: Fraction = Fraction(1)   # localized
    prime: int = 2                  # localized

    @property
    def canonical_name(self) -> str:
        if self.kind == "cyclic":
            return "Z" if self.q == 1 else f"(1/{self.q})Z"
        if self.kind == "two_gen":
            return f"Z+rho*Z(rho={self.rho:.10f})"
        if self.scale == 1:
            return f"Z[1/{self.prime}]"
        return f"({self.scale})Z[1/{self.prime}]"

    def __eq__(self, other):
        if not isinstance(other, LabelGroup):
            return NotImplemented
        if self.kind != other.kind:
            return False
        if self.kind == "cyclic":
            return self.q == other.q
        if self.kind == "localized":
            return self.scale == other.scale and self.prime == other.prime
        if self.lattice is not None and other.lattice is not None:
            return self.lattice == other.lattice
        return abs(self.rho - other.rho) < 1e-12

    def __hash__(self):
        return hash((self.kind, self.q, self.prime, self.scale))


@dataclass(frozen=True)
class GroupElement:
    """Group element with its integer coordinates and real value."""

    coordinates: tuple[int, ...]
    value: float


def cyclic_group(q: int) -> LabelGroup:
    if q < 1:
        raise ValueError("q must be positive")
    return LabelGroup(kind="cyclic", q=q)


def two_gen_group(rho) -> LabelGroup:
    """Z + rho Z.  Rational rho collapses to the cyclic presentation (1/q)Z."""
    if isinstance(rho, Fraction) or isinstance(rho, int):
        frac = Fraction(rho)
        return cyclic_group(frac.denominator)
    rho_f = float(rho) % 1.0
    if rho_f == 0.0:
        return cyclic_group(1)
    return LabelGroup(kind="two_gen", rho=rho_f)


def field_group(poly, lam, generators) -> LabelGroup:
    """Exact Z + rho Z spanned by elements of a real quadratic field Q(lam).

    poly is lam's minimal polynomial (monic integer coefficients, highest
    first), lam the real root meant (a Fraction, or a float), and each generator
    the coordinates (c1, c0) of c1 lam + c0.  The span must meet Q in Z,
    i.e. hold 1 as a primitive element; then it is Z + w Z for the first
    basis vector w of its Hermite normal form, and rho = w mod 1.
    """
    basis = lattice_hnf(generators)
    if len(basis) != 2 or basis[1] != (0, 1):
        raise Unrecognized("1 is not primitive in the rank-2 frequency lattice")
    [w] = values_at(basis[:1], lam)
    return LabelGroup(kind="two_gen", rho=float(w % 1),
                      lattice=(tuple(poly), tuple(basis)))


def localized_group(scale: Fraction, prime: int) -> LabelGroup:
    """a Z[1/p] with powers of p absorbed into the module (canonical a)."""
    scale = Fraction(scale)
    if scale <= 0:
        raise ValueError("scale must be positive")
    num, den = scale.numerator, scale.denominator
    while num % prime == 0:
        num //= prime
    while den % prime == 0:
        den //= prime
    return LabelGroup(kind="localized", scale=Fraction(num, den), prime=prime)


def nearest_element(x: float, group: LabelGroup, q_max: int = DEFAULT_Q_MAX,
                    n_max: int = DEFAULT_N_MAX) -> tuple[GroupElement, float]:
    """Closest group element under bounded coordinates, with its residual.

    Ties go to the smaller |q| (two-generator) or smaller N then |m|
    (localized); the exhaustive search is over |q| <= q_max, taken lazily in
    the order 0, -1, 1, -2, 2, ..., or N <= n_max.  Both bounds must be
    nonnegative whatever the group's kind, and x over the smallest step
    scale / p^n_max must be finite.
    """
    if not math.isfinite(x):
        raise ValueError("x must be finite")
    if q_max < 0 or n_max < 0:
        raise ValueError(f"coordinate bounds must be nonnegative, got q_max={q_max}, "
                         f"n_max={n_max}")
    if group.kind == "cyclic":
        m = round(x * group.q)
        value = m / group.q
        return GroupElement((m,), value), abs(x - value)
    if group.kind == "two_gen":
        best = None
        for q in chain.from_iterable((-i, i) if i else (0,) for i in range(q_max + 1)):
            p = round(x - q * group.rho)
            value = p + q * group.rho
            residual = abs(x - value)
            if best is None or residual < best[1] - 1e-15:
                best = (GroupElement((p, q), value), residual)
        return best
    try:
        smallest = float(group.scale) / group.prime**min(n_max, 1024)
    except OverflowError:  # p^n >= 2^n is past the float range from n = 1024 on
        smallest = 0.0
    if not (smallest > 0.0 and math.isfinite(x / smallest)):
        raise ValueError(f"x / (scale / p^n_max) is not finite at n_max={n_max}: "
                         "lower n_max")
    best = None
    for n in range(n_max + 1):
        step = float(group.scale) / group.prime**n
        m = round(x / step)
        value = m * step
        residual = abs(x - value)
        if best is None or residual < best[1] - 1e-15:
            best = (GroupElement((m, n), value), residual)
    return best

