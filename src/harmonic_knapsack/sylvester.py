"""The reciprocal-splitting sequence 1, 2, 6, 42, 1806, ... and its sums.

Each term is r*(r+1) where r is the previous term, so digit counts roughly
double per step. Two facts about the sequence carry the closed-form solver
and the limit bracket: the reciprocal prefix sums increase toward a limit
just below 1.7, and the sums of 1/(term+1) telescope to 1 - 1/next_term.
Both are verified by the test suite rather than assumed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "MAX_TERMS",
    "SylvesterTable",
    "sylvester_table",
    "table_covering",
    "largest_index_below",
]

# Digit counts double with every term; about 12 terms cover every use in this
# package and 64 is already far past anything computable.
MAX_TERMS = 64


@dataclass(frozen=True)
class SylvesterTable:
    """Terms r and reciprocal prefix sums s, 1-indexed via the accessors."""

    r: tuple[int, ...]
    s: tuple[Fraction, ...]

    @property
    def t_max(self) -> int:
        return len(self.r)

    def r_at(self, j: int) -> int:
        if not 1 <= j <= self.t_max:
            raise ValueError(f"term index {j} outside [1, {self.t_max}]")
        return self.r[j - 1]

    def s_at(self, t: int) -> Fraction:
        """Sum of the first t reciprocals; the empty sum is 0."""
        if not 0 <= t <= self.t_max:
            raise ValueError(f"prefix index {t} outside [0, {self.t_max}]")
        return Fraction(0) if t == 0 else self.s[t - 1]


def sylvester_table(t_max: int) -> SylvesterTable:
    """Exact table of the first t_max terms and their reciprocal prefix sums."""
    if not 1 <= t_max <= MAX_TERMS:
        raise ValueError(f"t_max must be in [1, {MAX_TERMS}], got {t_max}")
    terms = [1]
    while len(terms) < t_max:
        terms.append(terms[-1] * (terms[-1] + 1))
    sums = []
    acc = Fraction(0)
    for term in terms:
        acc += Fraction(1, term)
        sums.append(acc)
    return SylvesterTable(tuple(terms), tuple(sums))


def table_covering(bound: int) -> SylvesterTable:
    """Shortest table whose last term exceeds `bound`.

    Such a table makes largest_index_below(table, bound) decidable.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    length = 1
    term = 1
    while term <= bound:
        if length >= MAX_TERMS:
            raise ValueError(f"bound {bound} needs more than {MAX_TERMS} terms")
        term = term * (term + 1)
        length += 1
    return sylvester_table(length)


def largest_index_below(table: SylvesterTable, bound: int) -> int:
    """Largest index q with r_q <= bound.

    The table has to extend past `bound`, otherwise the answer cannot be
    certified from it.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if table.r[-1] <= bound:
        raise ValueError(
            f"table too short: last term {table.r[-1]} does not exceed bound {bound}"
        )
    q = 0
    for term in table.r:
        if term > bound:
            break
        q += 1
    return q
