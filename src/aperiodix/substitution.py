"""Substitution rules on finite alphabets and their linear-algebra invariants.

A rule maps each letter to a nonempty word.  Iterating it produces the words
whose geometry, diffraction and spectra the rest of the package studies.
`expansions` is the one routine that iterates it: every sigma^n in the
package (words, supertiles, fixed-point prefixes, collar seeds) comes from
there.  The occurrence matrix M is oriented so that M[i][j] counts letter i
inside the image of letter j; letter-count vectors then evolve as c -> M c,
so letter frequencies are the Perron right eigenvector and tile lengths the
left one, both exact in Q(lambda1) (exactla).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from itertools import islice
from typing import Optional

import numpy as np

from .errors import AperiodixError, LengthLimit, NotPrimitive
from .exactla import mat_mul, perron_root, perron_vector, transpose, values_at

DEFAULT_LENGTH_CAP = 10**7
LENGTH_CAP_ENV = "APERIODIX_LENGTH_CAP"


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
        values = (*self.alphabet, *self.images.values(), *self.tiles.values())
        if not all(isinstance(v, str) for v in values):
            raise ValueError("letters, images and tile values must be strings")
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
        if not all(len(tile) == 1 for tile in self.tiles.values()):
            raise ValueError("each tile value must be exactly one character")

    def project(self, word: str) -> str:
        """Project a word over the full alphabet onto the two-tile alphabet."""
        if not self.tiles:
            return word
        return word.translate(str.maketrans(self.tiles))

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

    def array(self) -> np.ndarray:
        return np.array(self.entries, dtype=float)


@dataclass(frozen=True)
class PerronData:
    """Perron-Frobenius data of a primitive occurrence matrix, as floats.

    freq solves M freq = lambda1 freq (letter frequencies, sum 1); lengths
    solves lengths M = lambda1 lengths (tile lengths, min entry scaled to 1).
    Both are solved exactly in Q(lambda1) and rounded once, so tiles of
    equal length come out exactly equal.
    """

    lambda1: float
    freq: np.ndarray
    lengths: np.ndarray


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


def perron_data(m: OccurrenceMatrix) -> PerronData:
    """Perron eigenvalue and eigenvectors of a primitive occurrence matrix.

    Frequencies and lengths are exactly the Perron vectors of M and M^T in
    power-basis coordinates of Q(lambda1) (exactla.perron_vector).  They are
    evaluated exactly at the root correctly rounded to 40 digits (exactla.perron_root)
    and rounded to floats once, after the lengths are divided by their
    minimum; the float residuals are then checked against M.
    """
    lam, f = perron_root(require_primitive(m).entries)
    freq = values_at(perron_vector(m.entries, f), lam)
    lengths = values_at(perron_vector(transpose(m.entries), f), lam)
    shortest = min(lengths)
    freq = np.array([float(x) for x in freq])
    lengths = np.array([float(x / shortest) for x in lengths])
    lam = float(lam)
    _validate_perron(m.array(), lam, freq, lengths)
    return PerronData(lam, freq, lengths)


def _validate_perron(arr, lam, freq, lengths):
    scale = max(abs(lam), 1.0)
    res_f = np.max(np.abs(arr @ freq - lam * freq))
    res_l = np.max(np.abs(lengths @ arr - lam * lengths))
    if res_f > 1e-10 * scale * np.max(np.abs(freq)) + 1e-13:
        raise ArithmeticError(f"frequency eigenvector residual {res_f:g}")
    if res_l > 1e-10 * scale * np.max(np.abs(lengths)) + 1e-13:
        raise ArithmeticError(f"length eigenvector residual {res_l:g}")


def expansions(rule: SubstitutionRule, letters=None, prefix: Optional[int] = None):
    """Yield, for k = 0, 1, 2, ..., the dict c -> sigma^k(c) over `letters`
    (default the alphabet) and every letter they reach.

    sigma^k(c) = sigma^(k-1)(sigma(c)): a level joins the previous level's
    words along each image.  With a prefix every word is cut to `prefix`
    letters at each level, exactly, since a cut word is whole or already
    `prefix` long.  Without one, LengthLimit is raised before a word of
    `letters` longer than length_cap() is built.
    """
    wanted = tuple(letters or rule.alphabet)
    live = set(wanted)
    for _ in rule.alphabet:
        live |= {x for c in live for x in rule.images[c]}
    limit = length_cap()
    words, total = {}, 1
    while True:
        if prefix is None and total > limit:
            raise LengthLimit(f"word of length {total} exceeds cap {limit}")
        words = {c: "".join(words[x] for x in rule.images[c])[:prefix] if words else c
                 for c in live}
        yield words
        total = max(sum(len(words[x]) for x in rule.images[c]) for c in wanted)


def expand_word(rule: SubstitutionRule, seed: str, order: int) -> str:
    """sigma^order(seed) as a string, guarded by the length cap."""
    if seed not in rule.alphabet:
        raise ValueError(f"seed {seed!r} not in alphabet")
    if order < 0:
        raise ValueError("order must be nonnegative")
    return next(islice(expansions(rule, (seed,)), order, None))[seed]


def periods(word: str, max_period: int):
    """Every period of word up to max_period, least first.

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
            yield p
        p = word.find(head, p + 1, 2 * max_period)


def least_period(word: str, max_period: int) -> int | None:
    """Least period of word if it is at most max_period, else None (see periods)."""
    return next(periods(word, max_period), None)


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
