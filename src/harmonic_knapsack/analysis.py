"""Slope families, witness instances, and the limit bracket.

The three named slope families pin mu to k. Along any of them the optima
form a non-increasing sequence in k, and under the lee family the optima and
the reciprocal prefix sums squeeze the same limit from both sides, which
tinf_bracket exploits: lower bound S_t, upper bound the lee-family optimum
at k = r_{t-1} + 2, read off the Sylvester walk in its telescoped form
S_t + 1/(r_t * (r_{t-1} + 1)). The bracket width collapses doubly
exponentially in t.

build_witness turns the greedy count vector (one item in each class r_j,
j <= Q, as solvers.closed_form_pieces hands them out) into an actual item
multiset whose total size is exactly 1 and whose profit trails the
vector's score by less than mu*eps, exhibiting the optimum as a true
packing profit. It works on integers and builds one Fraction per item.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .harmonic import HarmonicParams
from .ip_model import check_vector_k
from .solvers import closed_form_pieces, sylvester_rows

__all__ = [
    "FAMILIES",
    "LimitBracket",
    "mu_for",
    "build_witness",
    "tinf_bracket",
]


# name -> (min_k, rule): the slope mu the family assigns to each k >= min_k
FAMILIES = {
    "lee": (2, lambda k: Fraction(k, k - 1)),
    "caprara": (3, lambda k: Fraction(k, k - 2)),
    "refined": (3, lambda k: Fraction(k * (k - 2), k * k - 3 * k + 1)),
}


def mu_for(name: str, k: int) -> Fraction:
    """Slope of the named family at k, exact."""
    try:
        min_k, rule = FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; expected one of {sorted(FAMILIES)}") from None
    if k < min_k:
        raise ValueError(f"family {name} needs k >= {min_k}")
    return rule(k)


def build_witness(params: HarmonicParams, eps) -> tuple[Fraction, ...]:
    """Item sizes, in a tuple, of total size 1 realizing (almost) the greedy vector's score.

    The greedy vector (solvers.greedy_solution's) has one item in each class
    j = r_1, ..., r_Q, which closed_form_pieces returns along with r_{Q+1}.
    The bundle is one item (1+eps)/(j+1) per such class (none where m = 0),
    then copies of 1/k while they fit, then the exact remainder, all
    computed on the integers of eps = a/b and r = r_{Q+1}; eps is a Fraction,
    int, finite float or Decimal, read at its exact value through
    as_integer_ratio().
    eps must be positive and is lowered to 1/s - 1 where the vector's cost s
    is positive; the profit is score - mu*eps*s exactly. As s telescopes to
    1 - 1/r, that is 1/(r - 1) where Q > 0, and as each greedy class
    j <= min(m, k - 1) < r, it is at most 1/j, which keeps every item inside
    its class. A k above ip_model.MAX_VECTOR_K is refused before eps is
    read, as greedy refuses it.
    """
    check_vector_k(params.k)
    a, b = eps.as_integer_ratio()
    if a <= 0:
        raise ValueError("eps must be positive")
    _, classes, r, _ = closed_form_pieces(params)
    if a * (r - 1) > b:  # never at Q = 0, where r = 1
        a, b = 1, r - 1
    head = tuple(Fraction(a + b, b * (j + 1)) for j in classes)
    # the remainder 1 - (1 + eps) * s is (b*r - (a+b)*(r-1)) / (b*r)
    fillers, rest = divmod(params.k * (b * r - (a + b) * (r - 1)), b * r)
    tail = (Fraction(rest, b * r * params.k),) if rest else ()
    return head + (Fraction(1, params.k),) * fillers + tail


class LimitBracket(NamedTuple):
    """Two-sided exact bracket on the common limit of the family optima."""

    t: int
    lower: Fraction
    upper: Fraction

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def tinf_bracket(t: int) -> LimitBracket:
    """Bracket the limit between S_t and the lee-family optimum at k = r_{t-1} + 2.

    That optimum telescopes to S_t + 1/(r_t * (r_{t-1} + 1)), so both ends
    come from two rows of sylvester_rows. tests/test_analysis.py's
    test_bracket_width_formula checks the upper end against
    solve_closed_form at that k for every t accepted here.
    """
    if not 2 <= t <= 12:
        raise ValueError("t must be in [2, 12]")
    (r_prev, _), (r_t, lower) = islice(sylvester_rows(), t - 2, t)
    return LimitBracket(t, lower, lower + Fraction(1, r_t * (r_prev + 1)))
