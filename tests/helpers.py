"""Helpers the suite shares that the package itself has no use for."""

from fractions import Fraction

from harmonic_knapsack.harmonic import eval_fk
from harmonic_knapsack.ip_model import cost
from harmonic_knapsack.solvers import greedy_solution

# The slopes below 1 on which branch-and-bound ran slowest at k = MAX_VECTOR_K:
# a 4,300-digit denominator next to 0, 1/3, and a 61-digit slope next to 1.
WORST_BNB_SLOPES = (Fraction(1, 10**4299), Fraction(1, 3), 1 - Fraction(1, 10**60))


def profit(params, items) -> Fraction:
    """Total payoff of an item multiset; the empty one is worth 0."""
    return sum((eval_fk(params, x) for x in items), Fraction(0))


def clamped_eps(params, eps) -> Fraction:
    """The eps a witness for params is built with: at most 1/cost - 1 of the greedy vector."""
    load = cost(greedy_solution(params).counts, params)
    return min(eps, 1 / load - 1) if load else eps
