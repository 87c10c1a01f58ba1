"""The reciprocal-splitting sequence 1, 2, 6, 42, 1806, ... and its sums.

Each term is the previous term times one more than itself, so digit
counts roughly double per step. Two facts about the sequence carry the
closed-form solver and the limit bracket: the reciprocal prefix sums
increase toward a limit just below 1.7, and the sums of 1/(term+1)
telescope to 1 - 1/next_term; the test suite verifies both.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

__all__ = ["sylvester_rows"]


def sylvester_rows() -> Iterator[tuple[int, Fraction]]:
    """Endless walk of (r_j, S_j) for j = 1, 2, ...: each term and the exact
    sum of the reciprocals of the terms up to it.

    The next term is only built when the next row is asked for, so a caller
    that stops at row j never pays for the (twice as long) term j+1.
    """
    r, s = 1, Fraction(0)
    while True:
        s += Fraction(1, r)
        yield r, s
        r = r * (r + 1)
