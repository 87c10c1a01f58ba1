"""Slope families, witness instances, monotone sweeps, and the limit bracket.

The three named slope families pin mu to k. Sweeping any of them produces a
non-increasing sequence of optima, and under the lee family the optima and
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
from typing import Callable, Union

from .harmonic import HarmonicParams, KnapsackInstance, classify
from .ip_model import IpSolution, cost, is_feasible, zero_counts
from .solvers import greedy_solution, solve, solve_closed_form
from .sylvester import sylvester_rows

__all__ = [
    "FAMILIES",
    "MuFamily",
    "SweepRow",
    "LimitBracket",
    "mu_for",
    "witness_counts",
    "build_witness",
    "monotonic_sweep",
    "tinf_bracket",
]


@dataclass(frozen=True)
class MuFamily:
    """A named rule assigning the slope mu to each k at or above min_k."""

    name: str
    min_k: int
    mu_of: Callable[[int], Fraction]


FAMILIES = {
    "lee": MuFamily("lee", 2, lambda k: Fraction(k, k - 1)),
    "caprara": MuFamily("caprara", 3, lambda k: Fraction(k, k - 2)),
    "refined": MuFamily("refined", 3, lambda k: Fraction(k * (k - 2), k * k - 3 * k + 1)),
}


def _family(family: Union[str, MuFamily]) -> MuFamily:
    if isinstance(family, MuFamily):
        return family
    try:
        return FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; expected one of {sorted(FAMILIES)}") from None


def mu_for(family: Union[str, MuFamily], k: int) -> Fraction:
    """Slope of the family at k, exact."""
    fam = _family(family)
    if k < fam.min_k:
        raise ValueError(f"family {fam.name} needs k >= {fam.min_k}, got {k}")
    return fam.mu_of(k)


def witness_counts(params: HarmonicParams, eps) -> tuple[IpSolution, Fraction]:
    """Count vector a witness for (k, mu) is built from, and eps clamped to it.

    The vector is the greedy one when k >= 2 and mu < 2, and all zeros
    otherwise (k = 1 has no classes; for mu >= 2 every class coefficient is
    non-positive). eps is lowered to 1/cost - 1 when it exceeds that, so the
    pair is always accepted by build_witness on the cost side.
    """
    if params.k >= 2 and params.mu < 2:
        counts, _ = greedy_solution(params)
    else:
        counts = tuple(zero_counts(params))
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
class SweepRow:
    k: int
    mu: Fraction
    opt: Fraction


def monotonic_sweep(family: Union[str, MuFamily], k_min: int, k_max: int) -> list[SweepRow]:
    """Optimum per k across [k_min, k_max] under one family, sorted by k."""
    fam = _family(family)
    if k_min < fam.min_k:
        raise ValueError(f"family {fam.name} needs k >= {fam.min_k}, got k_min={k_min}")
    if k_max < k_min:
        raise ValueError(f"k_max {k_max} below k_min {k_min}")
    rows = []
    for k in range(k_min, k_max + 1):
        mu = fam.mu_of(k)
        outcome = solve(HarmonicParams(k, mu), method="auto")
        rows.append(SweepRow(k, mu, outcome.opt))
    return rows


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
