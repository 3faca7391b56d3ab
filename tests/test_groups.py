import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from aperiodix.errors import UnknownFamily, Unrecognized
from aperiodix.groups import (
    cyclic_group,
    field_group,
    localized_group,
    nearest_element,
    two_gen_group,
)
from closed_forms import group_for_family

GOLDEN = (1 + math.sqrt(5)) / 2


def test_group_for_family_names():
    assert group_for_family("fibonacci").canonical_name == "Z+rho*Z(rho=0.6180339887)"
    assert group_for_family("thue-morse").canonical_name == "(1/3)Z[1/2]"
    assert group_for_family("period-doubling").canonical_name == "(1/3)Z[1/2]"
    assert group_for_family("rudin-shapiro").canonical_name == "Z[1/2]"
    assert group_for_family("periodic").canonical_name == "(1/2)Z"
    with pytest.raises(UnknownFamily):
        group_for_family("penrose")


def test_rational_two_gen_collapses_to_cyclic():
    g = two_gen_group(Fraction(3, 4))
    assert g.kind == "cyclic" and g.q == 4
    assert g == cyclic_group(4)


def test_localized_canonicalisation():
    assert localized_group(Fraction(2, 3), 2) == localized_group(Fraction(1, 6), 2)
    assert localized_group(Fraction(4), 2).canonical_name == "Z[1/2]"


def test_nearest_fibonacci_gap_label():
    g = group_for_family("fibonacci")
    elem, residual = nearest_element(0.382, g, q_max=3)
    assert elem.coordinates == (1, -1)
    assert residual < 1e-3


def test_nearest_thue_morse_exact():
    g = group_for_family("thue-morse")
    elem, residual = nearest_element(1 / 3, g)
    assert elem.coordinates == (1, 0)
    assert residual == 0.0


def test_nearest_rudin_shapiro_dyadic():
    g = group_for_family("rudin-shapiro")
    elem, residual = nearest_element(0.5, g)
    assert residual == 0.0
    assert elem.coordinates == (1, 1)


def test_contains_examples():
    fib = group_for_family("fibonacci")
    assert nearest_element(1 / GOLDEN, fib)[1] <= 1e-9
    rs = group_for_family("rudin-shapiro")
    # 1/5 is not dyadic: at the default depth the best residual is 1/(5*2^12)
    assert not nearest_element(1 / 5, rs)[1] <= 1e-6
    for family in ("periodic", "fibonacci", "thue-morse", "rudin-shapiro"):
        assert nearest_element(0.0, group_for_family(family))[1] <= 0.0


@pytest.mark.parametrize("group", [cyclic_group(2), two_gen_group(1 / GOLDEN),
                                   localized_group(Fraction(1, 3), 2)],
                         ids=lambda g: g.kind)
@pytest.mark.parametrize("bounds", [{"q_max": -1}, {"n_max": -1}], ids=["q_max", "n_max"])
def test_negative_bounds_are_refused(group, bounds):
    # every kind refuses them, the cyclic one too although it searches nothing
    with pytest.raises(ValueError, match="nonnegative"):
        nearest_element(0.25, group, **bounds)


def test_residual_monotone_in_bounds():
    g = group_for_family("fibonacci")
    x = 0.27182818
    residuals = [nearest_element(x, g, q_max=q)[1] for q in (2, 5, 10, 20, 30)]
    assert all(r1 >= r2 - 1e-15 for r1, r2 in zip(residuals, residuals[1:]))


def test_two_gen_exact_elements_and_floor():
    g = group_for_family("fibonacci")
    rho = g.rho
    rng = random.Random(11)
    # residuals vanish at true group elements
    for _ in range(50):
        p, q = rng.randint(-10, 10), rng.randint(-10, 10)
        _, res = nearest_element(p + q * rho, g)
        assert res < 1e-12
    # at random reals, bounded search leaves a strictly positive median gap
    residuals = sorted(nearest_element(rng.random(), g, q_max=30)[1]
                       for _ in range(200))
    median = residuals[100]
    assert median > 1e-5  # measured floor ~1e-4 at |p|,|q| <= 30


def test_group_element_round_trip():
    g = group_for_family("fibonacci")
    elem, _ = nearest_element(0.618, g)
    p, q = elem.coordinates
    assert abs(elem.value - (p + q * g.rho)) < 1e-14
    lg = group_for_family("thue-morse")
    elem, _ = nearest_element(0.4, lg)
    m, n = elem.coordinates
    assert abs(elem.value - float(lg.scale) * m / lg.prime**n) < 1e-14


GOLDEN_POLY = (1, -1, -1)  # tau^2 = tau + 1; coordinates (c1, c0) mean c1 tau + c0


def test_exact_equality_via_lattices():
    a = field_group(GOLDEN_POLY, GOLDEN, [(0, 1), (1, 0)])
    # same group generated differently: Z + tau Z equals Z + (tau - 1) Z
    b = field_group(GOLDEN_POLY, GOLDEN, [(0, 1), (1, -1)])
    assert a == b
    assert a.canonical_name == "Z+rho*Z(rho=0.6180339887)"


def test_field_group_needs_one_primitive():
    # (1/2)Z + (tau/2)Z holds 1 = 2 * (1/2), which is not primitive there
    with pytest.raises(Unrecognized):
        field_group(GOLDEN_POLY, GOLDEN, [(0, Fraction(1, 2)), (Fraction(1, 2), 0)])


def test_two_gen_search_order_and_memory():
    # |q| <= q_max in the order 0, -1, 1, -2, 2, ...: ties go to the smaller
    # |q|, then the negative q, as a search over the sorted list did
    g = two_gen_group(1 / GOLDEN)
    rng = random.Random(5)
    for x in [0.0, 0.5, *(rng.uniform(-3, 3) for _ in range(50))]:
        best = None
        for q in sorted(range(-12, 13), key=abs):
            p = round(x - q * g.rho)
            residual = abs(x - (p + q * g.rho))
            if best is None or residual < best[1] - 1e-15:
                best = ((p, q), residual)
        elem, residual = nearest_element(x, g, q_max=12)
        assert (elem.coordinates, residual) == best
    # the search holds no list of its 2 q_max + 1 candidates
    tracemalloc.start()
    nearest_element(0.3, g, q_max=200_000)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < 100_000


@pytest.mark.parametrize("n_max", [1023, 1100, 10**6])
def test_localized_steps_past_the_float_range_are_refused(n_max):
    # (1/3) / 2^1023 is subnormal and 0.9 over it overflows; past 2^1024 the
    # power itself leaves the float range
    g = localized_group(Fraction(1, 3), 2)
    with pytest.raises(ValueError, match="not finite"):
        nearest_element(0.9, g, n_max=n_max)
    assert nearest_element(0.9, g, n_max=1022)[1] < 1e-15
