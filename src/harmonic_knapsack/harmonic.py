"""Size-classed profit function and exact knapsack instances.

Sizes in [0, 1] fall into k classes. Class j, for j in [1, k-1], is the
interval (1/(j+1), 1/j] and pays a flat 1/j; class k is [0, 1/k] and pays
mu*x, linear in the size, with slope mu in [0, k]. profit() sums this payoff
over an item multiset; the optimizers elsewhere in the package maximize it
subject to the sizes fitting into one unit knapsack.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

__all__ = [
    "MAX_DIGITS",
    "HarmonicParams",
    "KnapsackInstance",
    "classify",
    "eval_fk",
    "parse_rational",
    "profit",
]

# CPython refuses to print an int of more than 4300 digits, so no rational
# read from outside may carry more than that on either side of its slash.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS
_EXPONENT = re.compile(r"e([-+]?\d[\d_]*)\s*$", re.IGNORECASE)


def parse_rational(text: str) -> Fraction:
    """Exact rational from "p/q", an integer, or a finite decimal such as 1.75 or 2e-3.

    Numerator and denominator may have at most MAX_DIGITS digits each. The
    exponent is checked before Fraction builds 10**exponent from it: the
    mantissa has fewer than len(text) digits to cancel, so an exponent beyond
    MAX_DIGITS + len(text) can only give a longer result.
    """
    exponent = _EXPONENT.search(text)
    try:
        fits = exponent is None or abs(int(exponent.group(1))) <= MAX_DIGITS + len(text)
        value = Fraction(text) if fits else None
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
    except ValueError:
        raise ValueError(f"not a rational: {text!r}") from None
    if value is None or abs(value.numerator) >= _TOO_LONG or value.denominator >= _TOO_LONG:
        raise ValueError(f"{text!r} has more than {MAX_DIGITS} digits in its numerator or denominator")
    return value


@dataclass(frozen=True)
class HarmonicParams:
    """Number of size classes k >= 1 and small-item slope mu in [0, k]."""

    k: int
    mu: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"k must be an integer >= 1, got {self.k!r}")
        object.__setattr__(self, "mu", Fraction(self.mu))
        if not 0 <= self.mu <= self.k:
            raise ValueError(f"mu must lie in [0, {self.k}], got {self.mu}")


@dataclass(frozen=True)
class KnapsackInstance:
    """Ordered multiset of item sizes, each an exact rational in [0, 1]."""

    items: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        sizes = tuple(Fraction(x) for x in self.items)
        for x in sizes:
            if not 0 <= x <= 1:
                raise ValueError(f"item size {x} outside [0, 1]")
        object.__setattr__(self, "items", sizes)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def total(self) -> Fraction:
        return sum(self.items, Fraction(0))

    def to_json(self) -> str:
        """Serialize as a JSON array of exact "p/q" strings."""
        return json.dumps([str(x) for x in self.items])

    @classmethod
    def from_json(cls, text: str) -> "KnapsackInstance":
        raw = json.loads(text)
        if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
            raise ValueError('expected a JSON array of "p/q" strings')
        return cls(tuple(parse_rational(s) for s in raw))


def classify(params: HarmonicParams, x) -> int:
    """Index of the size class containing x.

    Left boundaries are exclusive and right boundaries inclusive, so x = 1/j
    lands in class j; everything at or below 1/k lands in class k.
    """
    x = Fraction(x)
    if not 0 <= x <= 1:
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x * params.k <= 1:
        return params.k
    # x in (1/k, 1]: floor(1/x) is the class index, hitting j exactly on the
    # closed right boundary x = 1/j.
    return x.denominator // x.numerator


def eval_fk(params: HarmonicParams, x) -> Fraction:
    """Payoff of a single size: 1/j on class j < k, mu*x on class k."""
    j = classify(params, x)
    if j < params.k:
        return Fraction(1, j)
    return params.mu * Fraction(x)


def profit(params: HarmonicParams, inst: KnapsackInstance) -> Fraction:
    """Total payoff of an instance; the empty instance is worth 0."""
    return sum((eval_fk(params, x) for x in inst), Fraction(0))
