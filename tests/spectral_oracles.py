"""Spectral oracles that only the tests read: eigenvalues of a short chain
from the sign changes of its characteristic-polynomial recurrence, and the
counting function of a spectrum."""

import numpy as np

from aperiodix.errors import AperiodixError
from aperiodix.spectral import EnergySpectrum, TightBindingChain, _gershgorin

ORACLE_MAX = 12


class SizeLimit(AperiodixError):
    """Matrix too large for the brute-force oracle."""


def brute_force_eigs(chain: TightBindingChain) -> EnergySpectrum:
    """Characteristic-polynomial oracle for N <= 12.

    Roots of det(H - x) located by counting sign changes of the three-term
    recurrence p_k(x) and bisecting between the Gershgorin bounds; a solver
    independent of the LDL pivot route.
    """
    n = chain.size
    if n > ORACLE_MAX:
        raise SizeLimit(f"oracle limited to N <= {ORACLE_MAX}")
    d = [float(x) for x in chain.onsite]
    b = [float(x) for x in chain.hopping]

    def sign_changes(x: float) -> int:
        p_prev, p = 1.0, d[0] - x
        changes = 1 if p < 0 else 0
        last_sign = -1 if p < 0 else 1
        for k in range(1, n):
            p_next = (d[k] - x) * p - b[k - 1] ** 2 * p_prev
            p_prev, p = p, p_next
            sign = -last_sign if p == 0 else (1 if p > 0 else -1)
            if sign != last_sign:
                changes += 1
                last_sign = sign
        return changes

    lo, hi = _gershgorin(np.array(d), np.array(b))
    span = max(hi - lo, 1e-30)
    lo -= 1e-9 * span + 1e-12
    hi += 1e-9 * span + 1e-12
    eigs = []
    for k in range(1, n + 1):
        a, c = lo, hi
        for _ in range(100):
            m = 0.5 * (a + c)
            if sign_changes(m) < k:
                a = m
            else:
                c = m
        eigs.append(0.5 * (a + c))
    return EnergySpectrum(0.5 * np.sort(np.array(eigs)))


def counting_function(spectrum: EnergySpectrum, e: float) -> float:
    """Fraction of eigenvalues at most e (right-continuous step function)."""
    return float(np.searchsorted(spectrum.eigenvalues, e, side="right")) / spectrum.size
