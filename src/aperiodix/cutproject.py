"""Cut-and-project letter sequences from the characteristic sign function.

chi(n, phi) = sgn[cos(2 pi n s + phi) - cos(pi s)] maps each integer to one
of two letters.  Slopes are carried as exact Fractions: rational slopes stay
exact (ties sgn(0) resolved to +1 deterministically), irrational ones such
as 1/golden are stored as 60-digit rational approximants so the argument
reduction n*s mod 1 never accumulates error over accessible n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .substitution import least_period

APPROX_DIGITS = 60


def golden_conjugate_slope() -> Fraction:
    """1/golden = (sqrt(5) - 1)/2 to 60 decimal digits."""
    scale = 10**APPROX_DIGITS
    root5 = math.isqrt(5 * scale * scale)
    return Fraction(root5 - scale, 2 * scale)


def parse_slope(text: str) -> tuple[Fraction, bool]:
    """Parse "p/q", a decimal, or "1/golden"; returns (slope, is_exact)."""
    text = text.strip()
    if text == "1/golden":
        return golden_conjugate_slope(), False
    if "/" in text:
        num, den = (int(part) for part in text.split("/", 1))
        if den == 0:
            raise ValueError(f"slope {text!r} has a zero denominator")
        return Fraction(num, den), True
    return Fraction(text), True


@dataclass(frozen=True)
class CPParams:
    """Slope and phason of the cut, with the two output letters."""

    slope: Fraction
    phason: float = 0.0
    letter_plus: str = "a"
    letter_minus: str = "b"
    exact: bool = True  # slope is the intended exact rational

    def __post_init__(self):
        if not (0 < self.slope < 1):
            raise ValueError("slope must lie in (0, 1)")
        object.__setattr__(self, "phason", self.phason % (2 * math.pi))

    @staticmethod
    def from_text(slope: str, phason: float = 0.0,
                  letter_plus: str = "a", letter_minus: str = "b") -> "CPParams":
        s, exact = parse_slope(slope)
        return CPParams(s, phason, letter_plus, letter_minus, exact)


def chi(n: int, params: CPParams) -> int:
    """Characteristic sign at integer n; an exact zero resolves to +1."""
    return 1 if cp_word(params, n) == params.letter_plus else -1


def cp_word(params: CPParams, n0: int = 0, count: int = 1) -> str:
    """Word of length count with letter i determined by chi(n0 + i)."""
    if count < 1:
        raise ValueError("count must be at least 1")
    p, q = params.slope.numerator, params.slope.denominator
    cos_cut = math.cos(math.pi * p / q)
    two_pi = 2 * math.pi
    plus, minus = params.letter_plus, params.letter_minus
    exact_ties = params.phason == 0.0 and params.exact
    t = (n0 * p) % q
    out = []
    for _ in range(count):
        if exact_ties and ((2 * t - p) % (2 * q) == 0 or (2 * t + p) % (2 * q) == 0):
            out.append(plus)
        else:
            value = math.cos(two_pi * t / q + params.phason) - cos_cut
            out.append(plus if value >= 0 else minus)
        t = (t + p) % q
    return "".join(out)


def check_periodicity(params: CPParams, horizon: int = 10000):
    """Smallest period at most horizon/2, confirmed on four horizons.

    Quasiperiodic words carry long borders, so a candidate period from the
    horizon window alone can be spurious (a Sturmian word of length h always
    repeats with some Fibonacci-number lag below h/2).  The candidate must
    hold on the first 4 * horizon letters to count; genuine rational periods
    always do, while Sturmian pseudo-periods break within about 3.6 periods
    (the critical exponent of the word).

    Returns {"periodic": bool, "period": int | None}.
    """
    if horizon < 2:
        raise ValueError("horizon must be at least 2")
    period = least_period(cp_word(params, 0, 4 * horizon), horizon // 2)
    return {"periodic": period is not None, "period": period}
