import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonic_knapsack.exactnum import to_decimal
from reference_values import TABLE_DECIMALS, TABLE_OPT

F = Fraction

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=10**6)


def test_arithmetic_examples():
    assert F(1, 3) + F(1, 6) == F(1, 2)
    assert F(5, 3) + F(1, 18) == F(31, 18)
    assert F(41, 42) < 1


def test_division_by_zero_propagates():
    with pytest.raises(ZeroDivisionError):
        F(1, 2) / F(0)


def test_to_decimal_examples():
    assert to_decimal(F(31, 18), 8) == "1.72222222"
    assert to_decimal(F(2525, 1491), 8) == "1.69349430"
    assert to_decimal(F(1, 2), 3) == "0.500"


def test_to_decimal_half_away_from_zero():
    assert to_decimal(F(1, 8), 2) == "0.13"
    assert to_decimal(F(-1, 8), 2) == "-0.13"
    assert to_decimal(F(5, 1000), 2) == "0.01"
    assert to_decimal(F(2), 8) == "2.00000000"


def test_to_decimal_rejects_nonpositive_digits():
    with pytest.raises(ValueError):
        to_decimal(F(1, 2), 0)


def test_all_reference_decimal_cells():
    # every 8-place decimal printed next to a reference fraction
    for family, cells in TABLE_DECIMALS.items():
        for k, text in cells.items():
            assert to_decimal(TABLE_OPT[family][k], 8) == text, (family, k)


@given(rationals, rationals)
def test_add_sub_roundtrip(a, b):
    assert a + b - b == a


@given(rationals, rationals.filter(lambda b: b != 0))
def test_mul_div_roundtrip(a, b):
    assert (a * b) / b == a


@given(st.lists(rationals, min_size=1, max_size=8))
def test_canonical_after_chains(values):
    acc = F(0)
    for v in values:
        acc = acc + v
        acc = acc * v if v else acc - v
    assert acc.denominator >= 1
    assert math.gcd(abs(acc.numerator), acc.denominator) == 1


@given(rationals, st.integers(min_value=1, max_value=12))
def test_to_decimal_roundtrip(value, digits):
    text = to_decimal(value, digits)
    assert abs(F(text) - value) < F(1, 10**digits)
