"""Reference computations made apart from aperiodix.

Everything here uses numpy, scipy, the standard library and the closed forms
of the paper; nothing imports the package under test.  The workloads compare
the program's outputs against these functions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

GOLDEN = (1 + math.sqrt(5)) / 2
TWO_PI = 2 * math.pi

# The five built-in families, written out again so that the benchmark does
# not take the rules from the program it checks.
FAMILY_RULES = {
    "periodic": {"alphabet": ["a", "b"], "images": {"a": "ab", "b": "ab"}},
    "fibonacci": {"alphabet": ["a", "b"], "images": {"a": "ab", "b": "a"}},
    "thue-morse": {"alphabet": ["a", "b"], "images": {"a": "ab", "b": "ba"}},
    "period-doubling": {"alphabet": ["a", "b"], "images": {"a": "ab", "b": "aa"}},
    "rudin-shapiro": {
        "alphabet": ["A", "B", "C", "D"],
        "images": {"A": "AB", "B": "AC", "C": "DB", "D": "DC"},
        "tiles": {"A": "a", "B": "b", "C": "a", "D": "b"},
    },
}

# Table 1 of the paper: Cech H^1 and the gap-labelling (trace) group.
TABLE1_H1 = {
    "periodic": "Z",
    "fibonacci": "Z^2",
    "thue-morse": "Z ⊕ Z[1/2]",
    "period-doubling": "Z ⊕ Z[1/2]",
    "rudin-shapiro": "Z ⊕ Z[1/2]^3",
}
TABLE1_TRACE = {
    "periodic": ("cyclic", Fraction(1, 2), None),
    "fibonacci": ("two_gen", 1 / GOLDEN, None),
    "thue-morse": ("localized", Fraction(1, 3), 2),
    "period-doubling": ("localized", Fraction(1, 3), 2),
    "rudin-shapiro": ("localized", Fraction(1), 2),
}


# -- words and Perron data ----------------------------------------------------

def expand(rule: dict, order: int) -> str:
    """sigma^order of the first letter, projected onto the tiles when the rule has them."""
    images = rule["images"]
    word = rule["alphabet"][0]
    for _ in range(order):
        word = "".join(images[c] for c in word)
    tiles = rule.get("tiles")
    return "".join(tiles[c] for c in word) if tiles else word


def occurrence(rule: dict) -> list[list[int]]:
    """M[i][j] = number of letter i in the image of letter j."""
    alphabet = rule["alphabet"]
    return [[rule["images"][cj].count(ci) for cj in alphabet] for ci in alphabet]


def perron_vectors(rule: dict) -> tuple[float, np.ndarray, np.ndarray]:
    """(lambda, letter frequencies summing to 1, tile lengths) by numpy."""
    m = np.array(occurrence(rule), dtype=float)
    vals, right = np.linalg.eig(m)
    k = int(np.argmax(vals.real))
    freq = np.abs(right[:, k].real)
    vals_t, left = np.linalg.eig(m.T)
    lengths = np.abs(left[:, int(np.argmax(vals_t.real))].real)
    return float(vals[k].real), freq / freq.sum(), lengths / lengths.min()


def tile_frequencies(rule: dict) -> list[float]:
    """Frequencies of the letters of the rule's own alphabet."""
    return [float(f) for f in perron_vectors(rule)[1]]


def scaled_positions(rule: dict, order: int) -> tuple[np.ndarray, str, float]:
    """Atoms at left tile ends, Perron lengths, unit Perron mean spacing.

    Returns (positions, tile word, total length)."""
    _, freq, lengths = perron_vectors(rule)
    full = expand({"alphabet": rule["alphabet"], "images": rule["images"]}, order)
    index = {c: i for i, c in enumerate(rule["alphabet"])}
    steps = np.array([lengths[index[c]] for c in full])
    positions = np.concatenate([[0.0], np.cumsum(steps)[:-1]])
    tiles = rule.get("tiles")
    word = "".join(tiles[c] for c in full) if tiles else full
    dbar = float(freq @ lengths)
    return positions / dbar, word, float(steps.sum()) / dbar


def contrast_weights(word: str) -> np.ndarray:
    marks = np.array([1.0 if c == "a" else 0.0 for c in word])
    return marks - marks.mean()


def direct_sum(positions: np.ndarray, weights, ks) -> np.ndarray:
    """|sum_n w_n exp(-i k x_n)| by an explicit loop over k."""
    w = np.ones(len(positions)) if weights is None else weights
    return np.array([abs(np.sum(w * np.exp(-1j * k * positions))) for k in ks])


def contrast_structure_factor(rule: dict, order: int, ks) -> tuple[np.ndarray, int]:
    """S(k) = |G(k)|^2 / N with species-contrast weights; returns (S, N)."""
    x, word, _ = scaled_positions(rule, order)
    amps = direct_sum(x, contrast_weights(word), ks)
    return amps ** 2 / len(x), len(x)


def fit_gamma(amplitudes, n_atoms, lengths) -> float:
    """Slope of log(|G|^2/N) against log L, clipped like the scaling law."""
    s = [a * a / n for a, n in zip(amplitudes, n_atoms)]
    slope = float(np.polyfit(np.log(lengths), np.log(s), 1)[0])
    return min(max(slope, 0.0), 1.05)


# -- characteristic polynomials and Perron classes ----------------------------

def char_poly(m: list[list[int]]) -> list[int]:
    """Integer coefficients of det(xI - M), leading first (Faddeev-LeVerrier)."""
    n = len(m)
    coeffs = [1]
    mk = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        c_prev = coeffs[-1]
        mk = [[sum(m[i][t] * mk[t][j] for t in range(n)) + (c_prev if i == j else 0)
               for j in range(n)] for i in range(n)]
        am = [[sum(m[i][t] * mk[t][j] for t in range(n)) for j in range(n)]
              for i in range(n)]
        trace = sum(am[i][i] for i in range(n))
        coeffs.append(-trace // k)
    return coeffs


def _poly_eval(coeffs, x):
    value = 0
    for c in coeffs:
        value = value * x + c
    return value


def _divide_linear(coeffs, r):
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(c + out[-1] * r)
    return out


def _integer_roots(coeffs) -> list[int]:
    const = coeffs[-1]
    if const == 0:
        return [0]
    roots = []
    for d in range(1, abs(const) + 1):
        if const % d == 0:
            roots.extend(r for r in (d, -d) if _poly_eval(coeffs, r) == 0)
    return roots


def prime_power(n: int) -> int | None:
    """p when n = p^j (j >= 1), else None."""
    if n < 2:
        return None
    p = next(d for d in range(2, n + 1) if n % d == 0)
    while n % p == 0:
        n //= p
    return p if n == 1 else None


def minimal_poly_of_perron(rule: dict) -> tuple[float, list[int]]:
    """Perron root and the monic integer polynomial of least degree it solves.

    Valid for characteristic polynomials of degree at most 3: integer roots
    are split off by the rational-root test, and a cubic without one is
    irreducible over Q.
    """
    coeffs = char_poly(occurrence(rule))
    lam = float(max(np.roots(coeffs).real))
    while len(coeffs) > 2:
        roots = _integer_roots(coeffs)
        if not roots:
            break
        if any(abs(r - lam) < 1e-9 for r in roots):
            r = next(r for r in roots if abs(r - lam) < 1e-9)
            return lam, [1, -r]
        coeffs = _divide_linear(coeffs, roots[0])
    if len(coeffs) - 1 > 3:
        raise ValueError("minimal polynomial search covers degree <= 3 only")
    return lam, coeffs


def least_period(word: str, limit: int) -> int | None:
    """Least p <= limit with word[i] == word[i + p] throughout, else None."""
    head = word[:len(word) - limit]
    p = word.find(head, 1)
    while 0 < p <= limit:
        if word[p:] == word[:-p]:
            return p
        p = word.find(head, p + 1)
    return None


FIXED_POINT_WINDOW = 1 << 16


def fixed_point_word(rule: dict, length: int = FIXED_POINT_WINDOW) -> str | None:
    """Prefix of a fixed point of sigma^k (k <= 4), or None if there is none."""
    images = dict(rule["images"])
    for _ in range(4):
        for c in rule["alphabet"]:
            if images[c][0] == c and len(images[c]) > 1:
                word = c
                while len(word) < length:
                    word = "".join(images[x] for x in word)
                return word[:length]
        images = {c: "".join(rule["images"][x] for x in images[c])
                  for c in rule["alphabet"]}
    return None


def perron_class(rule: dict) -> dict:
    """Sort a primitive rule by its Perron root, computed apart from the program.

    Classes: periodic, prime_power, quadratic_unit, cubic_pisot_unit (the
    Tribonacci class) and other.  The first three must give a group.
    """
    word = fixed_point_word(rule)
    if word is not None:
        period = least_period(word, len(word) // 16)
        if period is not None:
            return {"cls": "periodic", "period": period}
    return perron_root_class(rule)


def perron_root_class(rule: dict) -> dict:
    """The Perron class of an aperiodic rule, from its characteristic polynomial."""
    lam, minimal = minimal_poly_of_perron(rule)
    degree = len(minimal) - 1
    unit = abs(minimal[-1]) == 1
    if degree == 1:
        p = prime_power(round(lam))
        if p is not None:
            return {"cls": "prime_power", "lam": round(lam), "prime": p}
        return {"cls": "other", "degree": 1}
    if degree == 2 and unit:
        disc = minimal[1] ** 2 - 4 * minimal[2]
        return {"cls": "quadratic_unit", "lam": lam, "disc": disc}
    if degree == 3 and unit:
        others = sorted(abs(r) for r in np.roots(minimal))[:2]
        if all(r < 1 - 1e-9 for r in others):
            return {"cls": "cubic_pisot_unit", "lam": lam}
    return {"cls": "other", "degree": degree}


def is_primitive(rule: dict) -> bool:
    m = np.array(occurrence(rule), dtype=np.int64) > 0
    n = len(m)
    power = m.copy()
    for _ in range(n * n):
        if power.all():
            return True
        power = (power.astype(np.int64) @ m.astype(np.int64)) > 0
    return False


# -- label groups -------------------------------------------------------------

_NAME_TWO_GEN = re.compile(r"^Z\+rho\*Z\(rho=([0-9.]+)\)$")
_NAME_LOCALIZED = re.compile(r"^(?:\((\d+(?:/\d+)?)\))?Z\[1/(\d+)\]$")
_NAME_CYCLIC = re.compile(r"^(?:\(1/(\d+)\))?Z$")


def parse_group(name: str) -> tuple:
    """(kind, scale or rho, prime) from a canonical trace-group name."""
    if m := _NAME_TWO_GEN.match(name):
        return ("two_gen", float(m.group(1)), None)
    if m := _NAME_LOCALIZED.match(name):
        return ("localized", Fraction(m.group(1) or 1), int(m.group(2)))
    if m := _NAME_CYCLIC.match(name):
        return ("cyclic", Fraction(1, int(m.group(1) or 1)), None)
    raise ValueError(f"unparsed group name {name!r}")


def group_contains(group: tuple, x: float, tol: float = 1e-7,
                   q_max: int = 1000, n_max: int = 12) -> bool:
    """Float membership of x, with bounded coordinates for the dense kinds.

    rho carries 10 printed decimals, so the two-generator test allows
    |q| * 5e-11 on top of tol.
    """
    kind, value, prime = group
    if kind == "cyclic":
        y = x / float(value)
        return abs(y - round(y)) <= tol
    if kind == "localized":
        ys = (x * prime ** n / float(value) for n in range(n_max + 1))
        return any(abs(y - round(y)) <= tol for y in ys)
    for q in range(-q_max, q_max + 1):
        if abs(x - q * value - round(x - q * value)) <= tol + abs(q) * 5e-11:
            return True
    return False


def nearest_dyadic(x: float, scale: Fraction, prime: int, n_max: int) -> tuple[int, float]:
    """Least n <= n_max with the smallest residual of x to scale * m / prime^n."""
    best_n, best = 0, math.inf
    for n in range(n_max + 1):
        step = float(scale) / prime ** n
        residual = abs(x - step * round(x / step))
        if residual < best - 1e-15:
            best_n, best = n, residual
    return best_n, best


def two_gen_residual(x: float, rho: float, q_max: int) -> tuple[int, float]:
    """(q, |x - p - q rho|) minimised over |q| <= q_max, smaller |q| on ties."""
    best_q, best = 0, math.inf
    for q in sorted(range(-q_max, q_max + 1), key=abs):
        residual = abs(x - q * rho - round(x - q * rho))
        if residual < best - 1e-15:
            best_q, best = q, residual
    return best_q, best


# -- Bragg modules (closed forms, in units of 2 pi) ---------------------------

def in_bragg_module(family: str, k: float, tol: float) -> bool:
    """k within tol of the closed-form Bragg module of fibonacci or period doubling.

    Coordinates are bounded so that the module stays sparse at the grid
    resolution: |q| <= 10 in Z + Z/golden, 2^n <= 32 in Z[1/2] (units of 2 pi).
    """
    u, t = k / TWO_PI, tol / TWO_PI
    if family == "fibonacci":
        return any(abs(u - q / GOLDEN - round(u - q / GOLDEN)) <= t
                   for q in range(-10, 11))
    if family == "period-doubling":
        return any(abs(u * 2 ** n - round(u * 2 ** n)) / 2 ** n <= t for n in range(6))
    raise ValueError(f"no closed-form Bragg module for {family!r}")


# -- spectra ------------------------------------------------------------------

def tridiagonal_energies(onsite, hopping) -> np.ndarray:
    """Halved eigenvalues of the symmetric tridiagonal H (H phi = 2 e phi)."""
    from scipy.linalg import eigvalsh_tridiagonal

    return 0.5 * eigvalsh_tridiagonal(np.asarray(onsite, float), np.asarray(hopping, float))


def chain_arrays(word: str, model: tuple) -> tuple[np.ndarray, np.ndarray]:
    """On-site and hopping arrays: ("onsite", va, vb) or ("hopping", va, vb, eps)."""
    letters = sorted(set(word))
    values = {letters[0]: model[1]}
    if len(letters) == 2:
        values[letters[1]] = model[2]
    v = np.array([values[c] for c in word])
    if model[0] == "onsite":
        return v, np.ones(len(word) - 1)
    return np.zeros(len(word)), np.exp(-0.5 * model[3] ** 2 * (v[:-1] + v[1:]))
