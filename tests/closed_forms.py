"""Closed-form label groups of the built-in families, written down by hand.

The program derives every group from the rule (cohomology.trace_image);
these are the published answers the derivation is checked against.
"""

import math
from fractions import Fraction

from aperiodix.errors import UnknownFamily
from aperiodix.groups import LabelGroup, field_group, localized_group, two_gen_group


def group_for_family(family: str) -> LabelGroup:
    """Canonical label group of each built-in family.

    periodic gives the degenerate two-generator group for its two-atom cell,
    fibonacci the golden two-generator group, Thue-Morse and period doubling
    (1/3)Z[1/2], Rudin-Shapiro Z[1/2].
    """
    if family == "periodic":
        return two_gen_group(Fraction(1, 2))
    if family == "fibonacci":
        # Z + (1/golden) Z, 1/golden = lambda - 1 for lambda^2 = lambda + 1
        return field_group((1, -1, -1), (1 + math.sqrt(5)) / 2, [(0, 1), (1, -1)])
    if family in ("thue-morse", "period-doubling"):
        return localized_group(Fraction(1, 3), 2)
    if family == "rudin-shapiro":
        return localized_group(Fraction(1), 2)
    raise UnknownFamily(f"no label group for family {family!r}")
