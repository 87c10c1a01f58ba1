"""Helpers the suite shares that the package itself has no use for."""

from fractions import Fraction

from harmonic_knapsack.harmonic import eval_fk


def profit(params, items) -> Fraction:
    """Total payoff of an item multiset; the empty one is worth 0."""
    return sum((eval_fk(params, x) for x in items), Fraction(0))
