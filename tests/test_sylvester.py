from fractions import Fraction
from itertools import islice

from harmonic_knapsack.exactnum import to_decimal
from harmonic_knapsack.solvers import sylvester_rows
from reference_values import SEQUENCE_FIRST_SEVEN

F = Fraction


def rows(count):
    """First `count` rows of the walk as parallel lists of terms and sums."""
    pairs = list(islice(sylvester_rows(), count))
    return [r for r, _ in pairs], [s for _, s in pairs]


def telescope_sum(terms, t: int) -> Fraction:
    """Plain summation of 1/(r_j + 1) for j <= t.

    Deliberately computed term by term; the telescoped form 1 - 1/r_{t+1} is
    asserted against this below.
    """
    return sum((Fraction(1, terms[j] + 1) for j in range(t)), Fraction(0))


def test_first_seven_terms():
    assert rows(7)[0] == SEQUENCE_FIRST_SEVEN


def test_prefix_sums():
    _, sums = rows(4)
    assert sums[0] == 1
    assert sums[2] == F(5, 3)
    assert sums[3] == F(71, 42)


def test_recurrence():
    terms, _ = rows(10)
    for a, b in zip(terms, terms[1:]):
        assert b == a * (a + 1)


def test_prefix_sum_steps():
    terms, sums = rows(10)
    for i in range(1, 10):
        assert sums[i] - sums[i - 1] == F(1, terms[i])


def test_prefix_sums_increase_below_two():
    _, sums = rows(12)
    for lo, hi in zip(sums, sums[1:]):
        assert lo < hi < 2


def test_telescope_examples():
    terms, _ = rows(5)
    assert telescope_sum(terms, 0) == 0
    assert telescope_sum(terms, 1) == F(1, 2)
    assert telescope_sum(terms, 3) == F(41, 42)


def test_telescope_identity():
    terms, _ = rows(10)
    for i in range(0, 9):
        assert telescope_sum(terms, i) == 1 - F(1, terms[i])


def test_s10_fifteen_places():
    _, sums = rows(10)
    assert to_decimal(sums[9], 15) == "1.691030206757254"
