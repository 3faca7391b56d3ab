"""Substitution rules on finite alphabets and their linear-algebra invariants.

A rule maps each letter to a nonempty word.  Iterating it produces the words
whose geometry, diffraction and spectra the rest of the package studies.  The
occurrence matrix M is oriented so that M[i][j] counts letter i inside the
image of letter j; letter-count vectors then evolve as c -> M c, so letter
frequencies are the Perron right eigenvector and tile lengths the left one.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np
import sympy

from .errors import AperiodixError, EmptyWord, LengthLimit, NotPrimitive
from .exactla import mat_mul, perron_vector, transpose

DEFAULT_LENGTH_CAP = 10**7
LENGTH_CAP_ENV = "APERIODIX_LENGTH_CAP"

PISOT_MARGIN = 1e-9


def length_cap() -> int:
    """Word-length cap, overridable through the environment."""
    raw = os.environ.get(LENGTH_CAP_ENV)
    return int(raw) if raw else DEFAULT_LENGTH_CAP


@dataclass(frozen=True)
class SubstitutionRule:
    """Alphabet plus letter -> word images, with an optional a/b tile projection."""

    alphabet: tuple[str, ...]
    images: dict[str, str]
    name: str = ""
    tiles: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        letters = set(self.alphabet)
        if len(self.alphabet) != len(letters) or len(self.alphabet) < 2:
            raise ValueError("alphabet letters must be distinct and at least two")
        if set(self.images) != letters:
            raise ValueError("images must cover exactly the alphabet")
        for letter, word in self.images.items():
            if not word:
                raise ValueError(f"image of {letter!r} is empty")
            if not set(word) <= letters:
                raise ValueError(f"image of {letter!r} uses foreign letters")
        if self.tiles and set(self.tiles) != letters:
            raise ValueError("tile projection must cover the alphabet")

    def project(self, word: str) -> str:
        """Project a word over the full alphabet onto the two-tile alphabet."""
        if not self.tiles:
            return word
        return "".join(self.tiles[c] for c in word)

    def to_json(self) -> str:
        data = {"name": self.name, "alphabet": list(self.alphabet),
                "images": dict(self.images)}
        if self.tiles:
            data["tiles"] = dict(self.tiles)
        return json.dumps(data, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "SubstitutionRule":
        data = json.loads(text)
        try:
            return SubstitutionRule(
                alphabet=tuple(data["alphabet"]),
                images=dict(data["images"]),
                name=data.get("name", ""),
                tiles=dict(data.get("tiles", {})),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise AperiodixError(
                'a rule is a JSON object with "alphabet" and "images"'
                f" ({type(exc).__name__}: {exc})") from exc


@dataclass(frozen=True)
class OccurrenceMatrix:
    """Integer letter-count matrix of a substitution (exact entries)."""

    entries: tuple[tuple[int, ...], ...]
    letters: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def trace(self) -> int:
        return sum(self.entries[i][i] for i in range(self.size))

    @property
    def det(self) -> int:
        return int_det([list(row) for row in self.entries])

    def array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)

    def power(self, n: int) -> list[list[int]]:
        return imat_pow([list(row) for row in self.entries], n)


@dataclass(frozen=True)
class PerronData:
    """Perron-Frobenius data of a primitive occurrence matrix, as floats.

    freq solves M freq = lambda1 freq (letter frequencies, sum 1); lengths
    solves lengths M = lambda1 lengths (tile lengths, min entry scaled to 1).
    Both are solved exactly in Q(lambda1) and rounded once, so tiles of
    equal length come out exactly equal.
    """

    lambda1: float
    lambda2_abs: float
    freq: np.ndarray
    lengths: np.ndarray
    beta: float


@dataclass(frozen=True)
class SubstitutionClass:
    primitive: bool
    pisot: bool
    unimodular: bool
    quasiperiodic: bool
    common_unimodular: bool


def int_det(m: list[list[int]]) -> int:
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


def imat_pow(m: list[list[int]], n: int) -> list[list[int]]:
    size = len(m)
    result = [[int(i == j) for j in range(size)] for i in range(size)]
    base = [row[:] for row in m]
    while n > 0:
        if n & 1:
            result = mat_mul(result, base)
        base = mat_mul(base, base)
        n >>= 1
    return result


def occurrence_matrix(rule: SubstitutionRule) -> OccurrenceMatrix:
    """Count matrix M[i][j] = multiplicity of letter i in the image of letter j."""
    idx = {c: i for i, c in enumerate(rule.alphabet)}
    a = len(rule.alphabet)
    entries = [[0] * a for _ in range(a)]
    for j, letter in enumerate(rule.alphabet):
        for c in rule.images[letter]:
            entries[idx[c]][j] += 1
    return OccurrenceMatrix(tuple(tuple(row) for row in entries), rule.alphabet)


def is_primitive(m: OccurrenceMatrix) -> bool:
    """Some power up to size^2 is strictly positive."""
    size = m.size
    reach = [[min(x, 1) for x in row] for row in m.entries]
    power = reach
    for _ in range(size * size):
        if all(all(x > 0 for x in row) for row in power):
            return True
        power = [[min(x, 1) for x in row] for row in mat_mul(power, reach)]
    return False


def require_primitive(m: OccurrenceMatrix) -> OccurrenceMatrix:
    """m itself; NotPrimitive if no power of it up to size^2 is strictly positive."""
    if not is_primitive(m):
        raise NotPrimitive(f"rule is not primitive: no power up to {m.size}^2 of its "
                           "occurrence matrix is strictly positive")
    return m


def char_poly(entries) -> sympy.Poly:
    """Exact characteristic polynomial, in x, of a square integer matrix."""
    x = sympy.Symbol("x")
    mat = sympy.Matrix([list(row) for row in entries])
    return sympy.Poly(mat.charpoly(x).as_expr(), x)


def perron_root(m: OccurrenceMatrix):
    """(lambda1, f, moduli): the largest real root of the characteristic polynomial.

    lambda1 is a 40-digit sympy Float, f its minimal polynomial (monic
    integer coefficients, highest first) and moduli the moduli of the other
    roots with multiplicity, largest first.  The polynomial is factored once
    over Q and each irreducible factor's roots are found with nroots, which
    does not converge at the repeated roots of an unfactored polynomial.
    """
    roots = []
    for factor, mult in char_poly(m.entries).factor_list()[1]:
        coeffs = tuple(int(c) for c in factor.all_coeffs())
        roots += [(r, coeffs) for r in factor.nroots(n=40)] * mult
    lam, f = max(((r, f) for r, f in roots if r.is_real), key=lambda rf: rf[0])
    moduli = sorted((abs(complex(r)) for r, _ in roots), reverse=True)[1:]
    return lam, f, moduli


def perron_data(m: OccurrenceMatrix) -> PerronData:
    """Perron eigenvalue and eigenvectors of a primitive occurrence matrix.

    Frequencies and lengths are exactly the Perron vectors of M and M^T in
    power-basis coordinates of Q(lambda1) (exactla.perron_vector).  They are
    evaluated exactly at a Fraction of the 40-digit root and rounded to
    floats once, after the lengths are divided by their minimum; the float
    residuals are then checked against M.
    """
    lam, f, others = perron_root(require_primitive(m))
    root = Fraction(str(lam))
    freq = _values_at(perron_vector(m.entries, f), root)
    lengths = _values_at(perron_vector(transpose(m.entries), f), root)
    shortest = min(lengths)
    freq = np.array([float(x) for x in freq])
    lengths = np.array([float(x / shortest) for x in lengths])
    lam = float(lam)
    lam2 = float(others[0]) if others else 0.0
    _validate_perron(m.array(), lam, freq, lengths)
    beta = math.log(lam2) / math.log(lam) if lam2 > 0 else math.nan
    return PerronData(lam, lam2, freq, lengths, beta)


def _values_at(coords, root: Fraction) -> list[Fraction]:
    """Power-basis coordinates (highest power first) evaluated at a rational root."""
    return [sum(c * root**p for p, c in enumerate(reversed(v))) for v in coords]


def _validate_perron(arr, lam, freq, lengths):
    scale = max(abs(lam), 1.0)
    res_f = np.max(np.abs(arr @ freq - lam * freq))
    res_l = np.max(np.abs(lengths @ arr - lam * lengths))
    if res_f > 1e-10 * scale * np.max(np.abs(freq)) + 1e-13:
        raise ArithmeticError(f"frequency eigenvector residual {res_f:g}")
    if res_l > 1e-10 * scale * np.max(np.abs(lengths)) + 1e-13:
        raise ArithmeticError(f"length eigenvector residual {res_l:g}")


def pisot_flags(m: OccurrenceMatrix) -> tuple[bool, bool]:
    """(pisot, lambda1_factor_irreducible) from the exact spectrum.

    A substitution counts as Pisot when lambda1 > 1 and every other root of
    the characteristic polynomial has modulus < 1 (Rudin-Shapiro fails via
    |lambda2| = sqrt(2)).  The second flag reports whether the full
    characteristic polynomial is irreducible over Q.
    """
    lam1, f, others = perron_root(m)
    pisot = float(lam1) > 1.0 and all(v < 1.0 - PISOT_MARGIN for v in others)
    return pisot, len(f) == m.size + 1


def has_common_affix(rule: SubstitutionRule) -> bool:
    """All images share a first letter, or all share a last letter."""
    firsts = {rule.images[c][0] for c in rule.alphabet}
    lasts = {rule.images[c][-1] for c in rule.alphabet}
    return len(firsts) == 1 or len(lasts) == 1


def classify_substitution(rule: SubstitutionRule, delta_u: float,
                          tol_delta: float = 0.1) -> SubstitutionClass:
    """Primitive / Pisot / unimodular / quasiperiodic classification.

    delta_u is the window-normalised fluctuation extent from the geometry
    module; pass NaN to skip the quasiperiodicity test.
    """
    m = require_primitive(occurrence_matrix(rule))
    pisot, _ = pisot_flags(m)
    unimodular = abs(m.det) == 1
    quasiperiodic = (not math.isnan(delta_u)) and abs(delta_u - 1.0) <= tol_delta
    common = pisot and unimodular and has_common_affix(rule)
    return SubstitutionClass(True, pisot, unimodular, quasiperiodic, common)


def recurrence_sequence(m: OccurrenceMatrix, n: int) -> list[int]:
    """F_0 = 0, F_1 = 1, F_{k+1} = tr(M) F_k - det(M) F_{k-1} (exact integers)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    t, p = m.trace, m.det
    seq = [0, 1]
    for _ in range(n - 1):
        seq.append(t * seq[-1] - p * seq[-2])
    return seq[: n + 1]


def word_length(rule: SubstitutionRule, seed: str, order: int) -> int:
    """|sigma^order(seed)| via exact matrix powers (no word materialised)."""
    m = occurrence_matrix(rule)
    j = rule.alphabet.index(seed)
    power = m.power(order)
    return sum(power[i][j] for i in range(m.size))


def expand_word(rule: SubstitutionRule, seed: str, order: int,
                cap: Optional[int] = None) -> str:
    """sigma^order(seed) as a string, guarded by the length cap."""
    if seed not in rule.alphabet:
        raise ValueError(f"seed {seed!r} not in alphabet")
    if order < 0:
        raise ValueError("order must be nonnegative")
    limit = cap if cap is not None else length_cap()
    total = word_length(rule, seed, order)
    if total > limit:
        raise LengthLimit(f"word of length {total} exceeds cap {limit}")
    word = seed
    for _ in range(order):
        word = "".join(rule.images[c] for c in word)
    return word


def letter_statistics(word: str) -> tuple[dict[str, int], dict[str, float]]:
    """Per-letter counts and empirical frequencies of a word."""
    if not word:
        raise EmptyWord("cannot compute statistics of an empty word")
    counts: dict[str, int] = {}
    for c in word:
        counts[c] = counts.get(c, 0) + 1
    n = len(word)
    freqs = {c: k / n for c, k in counts.items()}
    return counts, freqs


def least_period(word: str, max_period: int) -> int | None:
    """Least period of word if it is at most max_period, else None.

    Each period p makes the head word[:max_period] recur at p, so the
    candidates are the head's occurrences at 1..max_period, each confirmed
    by one slice comparison.  Periodicity tests pass a word four times
    longer than the window a period must show in, so that a long border of
    the window alone (Sturmian and Thue-Morse-like words have them) is no
    period.
    """
    head = word[:max_period]
    p = word.find(head, 1, 2 * max_period)
    while p != -1:
        if word[p:] == word[:-p]:
            return p
        p = word.find(head, p + 1, 2 * max_period)
    return None


BUILTIN_RULES = {
    "periodic": SubstitutionRule(("a", "b"), {"a": "ab", "b": "ab"}, "periodic"),
    "fibonacci": SubstitutionRule(("a", "b"), {"a": "ab", "b": "a"}, "fibonacci"),
    "thue-morse": SubstitutionRule(("a", "b"), {"a": "ab", "b": "ba"}, "thue-morse"),
    "period-doubling": SubstitutionRule(("a", "b"), {"a": "ab", "b": "aa"},
                                        "period-doubling"),
    "rudin-shapiro": SubstitutionRule(
        ("A", "B", "C", "D"),
        {"A": "AB", "B": "AC", "C": "DB", "D": "DC"},
        "rudin-shapiro",
        tiles={"A": "a", "B": "b", "C": "a", "D": "b"},
    ),
}

FAMILY_NAMES = tuple(BUILTIN_RULES)


def builtin_rule(name: str) -> SubstitutionRule:
    from .errors import UnknownFamily

    try:
        return BUILTIN_RULES[name]
    except KeyError:
        raise UnknownFamily(f"unknown family {name!r}; expected one of {FAMILY_NAMES}")
