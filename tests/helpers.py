"""Helpers the suite shares that the package itself has no use for."""

from fractions import Fraction

from harmonic_knapsack.harmonic import HarmonicParams, eval_fk
from harmonic_knapsack.solvers import greedy_solution

# The slopes below 1 on which branch-and-bound ran slowest at k = MAX_VECTOR_K:
# a 4,300-digit denominator next to 0, 1/3, a 61-digit slope next to 1, and
# the slowest measured, 3/7 plus 1/10^4299 (about 0.4 s, 1,574 nodes).
WORST_BNB_SLOPES = (
    Fraction(1, 10**4299),
    Fraction(1, 3),
    1 - Fraction(1, 10**60),
    Fraction(3, 7) + Fraction(1, 10**4299),
)


def score(counts: tuple[int, ...], params: HarmonicParams) -> Fraction:
    """mu plus the per-class gains counts[j-1]*(1/j - mu/(j+1)), exact."""
    total = params.mu
    for j, c in enumerate(counts, start=1):
        if c:
            total += c * (Fraction(1, j) - params.mu / (j + 1))
    return total


def cost(counts: tuple[int, ...], params: HarmonicParams) -> Fraction:
    """Knapsack load sum counts[j-1]/(j+1), exact."""
    return sum((Fraction(c, j + 1) for j, c in enumerate(counts, start=1) if c), Fraction(0))


def profit(params, items) -> Fraction:
    """Total payoff of an item multiset; the empty one is worth 0."""
    return sum((eval_fk(params, x) for x in items), Fraction(0))


def clamped_eps(params, eps) -> Fraction:
    """The eps a witness for params is built with: at most 1/cost - 1 of the greedy vector."""
    load = cost(greedy_solution(params).counts, params)
    return min(eps, 1 / load - 1) if load else eps
