from fractions import Fraction

import pytest

from harmonic_knapsack.exactnum import to_decimal
from harmonic_knapsack.sylvester import (
    SylvesterTable,
    largest_index_below,
    sylvester_table,
    table_covering,
)
from reference_values import SEQUENCE_FIRST_SEVEN

F = Fraction


def telescope_sum(table: SylvesterTable, t: int) -> Fraction:
    """Plain summation of 1/(r_j + 1) for j <= t.

    Deliberately computed term by term; the telescoped form 1 - 1/r_{t+1} is
    asserted against this below, which is why t must stay one short of the
    table length.
    """
    if not 0 <= t <= table.t_max - 1:
        raise ValueError(f"t must be in [0, {table.t_max - 1}], got {t}")
    return sum((Fraction(1, table.r_at(j) + 1) for j in range(1, t + 1)), Fraction(0))


def test_first_seven_terms():
    assert list(sylvester_table(7).r) == SEQUENCE_FIRST_SEVEN


def test_prefix_sums():
    t = sylvester_table(4)
    assert t.s_at(3) == F(5, 3)
    assert t.s_at(4) == F(71, 42)
    assert t.s_at(0) == 0


def test_recurrence():
    t = sylvester_table(10)
    for j in range(1, 10):
        assert t.r_at(j + 1) == t.r_at(j) * (t.r_at(j) + 1)


def test_prefix_sum_steps():
    t = sylvester_table(10)
    for i in range(1, 10):
        assert t.s_at(i + 1) - t.s_at(i) == F(1, t.r_at(i + 1))


def test_prefix_sums_increase_below_two():
    t = sylvester_table(12)
    for i in range(1, 12):
        assert t.s_at(i) < 2
        if i > 1:
            assert t.s_at(i) > t.s_at(i - 1)


def test_telescope_examples():
    t = sylvester_table(5)
    assert telescope_sum(t, 0) == 0
    assert telescope_sum(t, 1) == F(1, 2)
    assert telescope_sum(t, 3) == F(41, 42)


def test_telescope_identity():
    t = sylvester_table(9)
    for i in range(0, 9):
        assert telescope_sum(t, i) == 1 - F(1, t.r_at(i + 1))


def test_telescope_range_check():
    t = sylvester_table(4)
    with pytest.raises(ValueError):
        telescope_sum(t, 4)  # needs the term after t


def test_largest_index_below():
    t = sylvester_table(7)
    assert largest_index_below(t, 2) == 2
    assert largest_index_below(t, 8) == 3
    assert largest_index_below(t, 1806) == 5
    with pytest.raises(ValueError):
        largest_index_below(t, 0)
    with pytest.raises(ValueError):
        largest_index_below(t, SEQUENCE_FIRST_SEVEN[-1])  # table cannot certify


def test_table_covering():
    assert table_covering(1).r[-1] == 2
    assert table_covering(2).r[-1] == 6
    assert table_covering(1806).t_max == 6
    with pytest.raises(ValueError):
        table_covering(0)


def test_length_validation():
    with pytest.raises(ValueError):
        sylvester_table(0)
    with pytest.raises(ValueError):
        sylvester_table(65)


def test_s10_fifteen_places():
    t = sylvester_table(10)
    assert to_decimal(t.s_at(10), 15) == "1.691030206757254"
