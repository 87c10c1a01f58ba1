"""Helpers the suite shares that the package itself has no use for."""

from fractions import Fraction

from harmonic_knapsack.harmonic import eval_fk
from harmonic_knapsack.ip_model import cost
from harmonic_knapsack.solvers import greedy_solution


def profit(params, items) -> Fraction:
    """Total payoff of an item multiset; the empty one is worth 0."""
    return sum((eval_fk(params, x) for x in items), Fraction(0))


def clamped_eps(params, eps) -> Fraction:
    """The eps a witness for params is built with: at most 1/cost - 1 of the greedy vector."""
    load = cost(greedy_solution(params)[0], params)
    return min(eps, 1 / load - 1) if load else eps
