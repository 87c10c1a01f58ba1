"""Slope families, witness instances, and the limit bracket.

The three named slope families pin mu to k. Along any of them the optima
form a non-increasing sequence in k, and under the lee family the optima and
the reciprocal prefix sums squeeze the same limit from both sides, which
tinf_bracket exploits: lower bound S_t, upper bound the closed-form optimum
at k = r_{t-1} + 2. The bracket width collapses doubly exponentially in t.

build_witness turns the greedy count vector into an actual item multiset
whose total size is exactly 1 and whose profit trails the vector's score by
less than mu*eps, exhibiting the optimum as a true packing profit.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .harmonic import HarmonicParams
from .ip_model import cost
from .solvers import greedy_solution, solve_closed_form, sylvester_rows

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

    One item (1+eps)/(j+1) per greedy class j (none where m = 0), then copies
    of 1/k while they fit, then the exact remainder. eps must be positive and
    is lowered to 1/s - 1 where the vector's cost s is positive; the profit is
    score - mu*eps*s exactly. As s = 1 - 1/r_{Q+1} and each greedy class
    j <= min(m, k - 1) < r_{Q+1}, that eps is at most 1/(r_{Q+1} - 1) <= 1/j,
    which keeps every item inside its class.
    """
    counts = greedy_solution(params).counts
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError("eps must be positive")
    load = cost(counts, params)
    if load > 0:
        eps = min(eps, 1 / load - 1)
    items = [Fraction(1 + eps, j + 1) for j, copies in enumerate(counts, start=1) if copies]
    filler = Fraction(1, params.k)
    fillers, rest = divmod(1 - (1 + eps) * load, filler)
    items.extend([filler] * fillers)
    if rest:
        items.append(rest)
    return tuple(items)


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

    The upper bound goes through solve_closed_form rather than the telescoped
    expression S_t + 1/(r_t * (r_{t-1} + 1)); the two are asserted equal, so
    the shortcut identity is re-proved on every call.
    """
    if not 2 <= t <= 12:
        raise ValueError("t must be in [2, 12]")
    (r_prev, _), (r_t, lower) = islice(sylvester_rows(), t - 2, t)
    k = r_prev + 2
    upper = solve_closed_form(HarmonicParams(k, mu_for("lee", k))).opt
    telescoped = lower + Fraction(1, r_t * (r_prev + 1))
    if upper != telescoped:
        raise AssertionError(
            f"closed form {upper} disagrees with telescoped bound {telescoped} at t={t}"
        )
    return LimitBracket(t, lower, upper)
