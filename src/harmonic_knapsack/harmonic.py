"""Size-classed profit function f_k: the size classes and the payoff of one size.

Sizes in [0, 1] fall into k classes. Class j, for j in [1, k-1], is the
interval (1/(j+1), 1/j] and pays a flat 1/j; class k is [0, 1/k] and pays
mu*x, linear in the size, with slope mu in [0, k]. The optimizers elsewhere
in the package maximize the payoff summed over an item multiset, subject to
the sizes fitting into one unit knapsack.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, NamedTuple

__all__ = [
    "HarmonicParams",
    "KnapsackInstance",
    "classify",
    "eval_fk",
]


class HarmonicParams(NamedTuple("HarmonicParams", [("k", int), ("mu", Fraction)])):
    """Number of size classes k >= 1 and small-item slope mu in [0, k]."""

    __slots__ = ()

    def __new__(cls, k: int, mu) -> "HarmonicParams":
        if not isinstance(k, int) or isinstance(k, bool) or k < 1:
            raise ValueError("k must be an integer >= 1")
        mu = Fraction(mu)
        if not 0 <= mu <= k:
            raise ValueError("mu must lie in [0, k]")
        return super().__new__(cls, k, mu)


class KnapsackInstance:
    """Holder of the sizes adversarial_instance returns; unchecked (harmonic_pack checks them).

    It stays only until perfbench stops calling it; the rest of the package
    passes sizes as plain tuples.
    """

    __slots__ = ("items",)

    def __init__(self, items) -> None:
        self.items = tuple(items)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)


def classify(params: HarmonicParams, x) -> int:
    """Index of the size class containing x.

    x is a Fraction, int, finite float or Decimal, read at its exact value
    through as_integer_ratio().

    Left boundaries are exclusive and right boundaries inclusive, so x = 1/j
    lands in class j; everything at or below 1/k lands in class k.
    """
    n, d = x.as_integer_ratio()
    if not 0 <= n <= d:
        raise ValueError("x must lie in [0, 1]")
    if n * params.k <= d:
        return params.k
    # x in (1/k, 1]: floor(1/x) is the class index, hitting j exactly on the
    # closed right boundary x = 1/j.
    return d // n


def eval_fk(params: HarmonicParams, x) -> Fraction:
    """Payoff of a single size: 1/j on class j < k, mu*x on class k."""
    j = classify(params, x)
    if j < params.k:
        return Fraction(1, j)
    return params.mu * Fraction(x)

