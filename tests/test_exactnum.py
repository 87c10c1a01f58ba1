import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonic_knapsack.analysis import build_witness
from harmonic_knapsack.exactnum import to_decimal
from harmonic_knapsack.harmonic import HarmonicParams, classify
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


def test_int_float_and_fraction_arguments_read_alike():
    # to_decimal, classify and build_witness read their argument's exact
    # integer pair, so an int or an exactly representable float gives the
    # result of the equal Fraction
    params = HarmonicParams(3, F(3, 2))  # eps is not clamped below 1 here
    for value, exact in [(1, F(1)), (0.5, F(1, 2)), (0.25, F(1, 4))]:
        assert to_decimal(value, 3) == to_decimal(exact, 3), value
        assert classify(params, value) == classify(params, exact), value
        assert build_witness(params, value) == build_witness(params, exact), value
    assert [classify(params, x) for x in (1, 0.5, 0.25, 0)] == [1, 2, 3, 3]
    assert build_witness(params, 0.25) == (F(5, 8), F(1, 3), F(1, 24))
    assert build_witness(params, 0.5) == (F(3, 4), F(1, 4))
    assert build_witness(params, 1) == (F(1),)
    assert to_decimal(-0.25, 1) == "-0.3"


def test_to_decimal_examples():
    assert to_decimal(F(31, 18), 8) == "1.72222222"
    assert to_decimal(F(2525, 1491), 8) == "1.69349430"
    assert to_decimal(F(1, 2), 3) == "0.500"


def test_to_decimal_half_away_from_zero():
    assert to_decimal(F(1, 8), 2) == "0.13"
    assert to_decimal(F(-1, 8), 2) == "-0.13"
    assert to_decimal(F(5, 1000), 2) == "0.01"
    assert to_decimal(F(2), 8) == "2.00000000"


def long_division(num, den, digits):
    """num/den at `digits` places, half away from zero, by schoolbook long division.

    One digit per step, then a carry through the digit list when the
    remainder is at least half of den. Only the whole part and single digits
    are converted to text, so no str() call meets CPython's 4,300-digit limit.
    """
    whole, rem = divmod(abs(num), den)
    places = []
    for _ in range(digits):
        digit, rem = divmod(rem * 10, den)
        places.append(digit)
    if 2 * rem >= den:
        i = digits - 1
        while i >= 0 and places[i] == 9:
            places[i] = 0
            i -= 1
        if i < 0:
            whole += 1
        else:
            places[i] += 1
    return ("-" if num < 0 else "") + str(whole) + "." + "".join(map(str, places))


def test_to_decimal_matches_long_division():
    values = [F(1, 10**7), F(-1, 10**7), F(3, 10**40), F(-7, 9), F(123456789, 1000), F(-10**30 - 1, 3)]
    values += [Decimal("0.125"), Decimal("-2.5"), Decimal("1e-30"), 0.1, -0.3, 2.0**-60, 1e22]
    # exact ties at the last place, positive and negative, some carrying
    # into the whole part
    for digits in range(1, 41):
        values += [F(2 * n + 1, 2 * 10**digits) for n in (0, 1, 10**digits - 1, 3 * 10**digits + 4)]
        values += [-F(2 * n + 1, 2 * 10**digits) for n in (0, 10**digits - 1)]
    for value in values:
        for digits in range(1, 41):
            assert to_decimal(value, digits) == long_division(*value.as_integer_ratio(), digits), (value, digits)
    assert to_decimal(F(1, 10**7), 8) == "0.00000010"
    assert to_decimal(F(-1, 10**7), 8) == "-0.00000010"
    assert to_decimal(F(1, 8), 2) == long_division(1, 8, 2) == "0.13"


def test_to_decimal_at_4300_places():
    # the 4,301-digit scaled values of 5/3 and 2 - 10^-4300 cannot pass
    # through str() whole under CPython's default limit
    for value in (F(5, 3), F(-1, 7), 2 - F(1, 10**4300)):
        assert to_decimal(value, 4300) == long_division(value.numerator, value.denominator, 4300), value
    assert to_decimal(2 - F(1, 10**4300), 4300) == "1." + "9" * 4300
    assert to_decimal(F(5, 3), 4300) == "1." + "6" * 4299 + "7"


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
