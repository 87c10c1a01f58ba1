"""Slope families, witness instances, and the limit bracket.

The three named slope families pin mu to k. Along any of them the optima
form a non-increasing sequence in k, and under the lee family the optima and
the reciprocal prefix sums squeeze the same limit from both sides, which
tinf_bracket exploits: lower bound S_t, upper bound the closed-form optimum
at k = r_{t-1} + 2. The bracket width collapses doubly exponentially in t.

build_witness turns a feasible count vector into an actual item multiset
whose total size is exactly 1 and whose profit trails the vector's score by
less than mu*eps, exhibiting the optimum as a true packing profit.
witness_counts is the one place that picks that vector for (k, mu).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .harmonic import HarmonicParams, KnapsackInstance, classify
from .ip_model import IpSolution, cost, is_feasible
from .solvers import greedy_solution, solve_closed_form
from .sylvester import sylvester_rows

__all__ = [
    "FAMILIES",
    "LimitBracket",
    "mu_for",
    "witness_counts",
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
        raise ValueError(f"family {name} needs k >= {min_k}, got {k}")
    return rule(k)


def witness_counts(params: HarmonicParams, eps) -> tuple[IpSolution, Fraction]:
    """Count vector a witness for (k, mu) is built from, and eps clamped to it.

    The vector is the greedy one, all zeros where m = 0 (k = 1 or mu >= 2).
    eps is lowered to 1/cost - 1 when it exceeds that, so the pair is always
    accepted by build_witness on the cost side.
    """
    counts, _ = greedy_solution(params)
    eps = Fraction(eps)
    load = cost(counts, params)
    if load > 0:
        eps = min(eps, 1 / load - 1)
    return counts, eps


def build_witness(params: HarmonicParams, counts: IpSolution, eps) -> KnapsackInstance:
    """Item multiset realizing (almost) the score of a feasible count vector.

    For each class j the instance holds counts[j-1] copies of (1+eps)/(j+1),
    nudged just inside class j, then copies of 1/k while they fit, then the
    exact remainder so the total is 1. With s = cost(counts) the profit works
    out to score - mu*eps*s exactly.

    eps must be positive, small enough that (1+eps)s <= 1, and small enough
    that every constructed item still classifies into its intended class.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not is_feasible(counts, params):
        raise ValueError("counts are infeasible (cost >= 1)")
    load = cost(counts, params)
    if load > 0 and eps > 1 / load - 1:
        raise ValueError(f"eps too large: need eps <= 1/cost - 1 = {1 / load - 1}, got {eps}")
    items: list[Fraction] = []
    for j, copies in enumerate(counts, start=1):
        if copies == 0:
            continue
        size = Fraction(1 + eps, j + 1)
        if classify(params, size) != j:
            raise ValueError(f"eps={eps} pushes the class-{j} item {size} out of its class")
        items.extend([size] * copies)
    running = (1 + eps) * load
    filler = Fraction(1, params.k)
    while running + filler <= 1:
        items.append(filler)
        running += filler
    if running < 1:
        items.append(1 - running)
    return KnapsackInstance(tuple(items))


@dataclass(frozen=True)
class LimitBracket:
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
        raise ValueError(f"t must be in [2, 12], got {t}")
    (r_prev, _), (r_t, lower) = islice(sylvester_rows(), t - 2, t)
    k = r_prev + 2
    upper = solve_closed_form(HarmonicParams(k, Fraction(k, k - 1))).opt
    telescoped = lower + Fraction(1, r_t * (r_prev + 1))
    if upper != telescoped:
        raise AssertionError(
            f"closed form {upper} disagrees with telescoped bound {telescoped} at t={t}"
        )
    return LimitBracket(t, lower, upper)
