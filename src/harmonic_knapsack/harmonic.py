"""Size-classed profit function and exact parsing of rationals and item sizes.

Sizes in [0, 1] fall into k classes. Class j, for j in [1, k-1], is the
interval (1/(j+1), 1/j] and pays a flat 1/j; class k is [0, 1/k] and pays
mu*x, linear in the size, with slope mu in [0, k]. The optimizers elsewhere
in the package maximize the payoff summed over an item multiset, subject to
the sizes fitting into one unit knapsack.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Iterator, NamedTuple

__all__ = [
    "MAX_DIGITS",
    "HarmonicParams",
    "KnapsackInstance",
    "classify",
    "eval_fk",
    "parse_rational",
    "parse_sizes",
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
    MAX_DIGITS + len(text) can only give a longer result. A run of more than
    MAX_DIGITS digits, which Fraction refuses as if bad syntax, is too long.
    """
    exponent = _EXPONENT.search(text)
    try:
        fits = exponent is None or abs(int(exponent.group(1))) <= MAX_DIGITS + len(text)
        value = Fraction(text) if fits else None
    except ZeroDivisionError:
        raise ValueError("zero denominator") from None
    except ValueError:
        if not any(len(run) > MAX_DIGITS for run in re.findall(r"\d+", text)):
            raise ValueError("not a rational") from None
        value = None
    if value is None or abs(value.numerator) >= _TOO_LONG or value.denominator >= _TOO_LONG:
        raise ValueError(f"value has more than {MAX_DIGITS} digits in its numerator or denominator")
    return value


def parse_sizes(text: str) -> tuple[Fraction, ...]:
    """Sizes from a JSON array of "p/q" strings via parse_rational; harmonic_pack checks the range."""
    try:
        raw = json.loads(text)
    except (json.JSONDecodeError, RecursionError):  # not JSON, or nested too deep to decode
        raw = None
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise ValueError('expected a JSON array of "p/q" strings')
    return tuple(parse_rational(s) for s in raw)


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

    Left boundaries are exclusive and right boundaries inclusive, so x = 1/j
    lands in class j; everything at or below 1/k lands in class k.
    """
    x = Fraction(x)
    n, d = x.numerator, x.denominator
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

