"""Exhaustive optimizer over per-class item counts.

A candidate assigns a non-negative count to each size class j in [1, k-1].
Its cost is sum counts[j-1]/(j+1), and it is feasible when the cost stays
strictly below 1; that bound forces counts[j-1] <= j, so the search space has
at most k! leaves. Its score is mu + sum counts[j-1]*(1/j - mu/(j+1)).
solve_brute maximizes the score by depth-first enumeration in lexicographic
order with prefix-cost pruning.

The enumeration hot loop runs on plain integers: costs are scaled by
lcm(2..k) and scores by q*lcm(1..k) for mu = p/q, so every comparison is
exact without per-node Fraction churn. The public score/cost helpers stay
Fraction-based and are cross-checked against the scaled path in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .harmonic import HarmonicParams

__all__ = [
    "BRUTE_CAP",
    "MAX_VECTOR_K",
    "IpSolution",
    "SolveReport",
    "score",
    "cost",
    "is_feasible",
    "solve_brute",
    "zero_counts",
]

IpSolution = tuple[int, ...]

# Largest k the exhaustive search accepts: k = 14 takes about 0.1 s and each
# further step multiplies the time by about 2.5. The closed form covers
# large k.
BRUTE_CAP = 14

# Largest k for which a count vector (k - 1 entries) is built. At this k the
# greedy vector is built, scored and printed, and the all-zero witness with
# its k filler items packed, in well under a second; ten times larger the
# latter takes seconds, and far larger k cannot be allocated at all.
MAX_VECTOR_K = 10_000


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one exhaustive run."""

    opt: Fraction
    argmax: IpSolution
    feasible_count: int
    nodes_visited: int


def _check_vector(counts: IpSolution, params: HarmonicParams) -> None:
    if len(counts) != params.k - 1:
        raise ValueError(
            f"expected {params.k - 1} class counts for k={params.k}, got {len(counts)}"
        )
    for j, c in enumerate(counts, start=1):
        if c < 0:
            raise ValueError(f"count for class {j} is negative")


def zero_counts(params: HarmonicParams) -> list[int]:
    """A fresh all-zero count vector for params; k above MAX_VECTOR_K is refused."""
    if params.k > MAX_VECTOR_K:
        raise ValueError(f"k={params.k} is above {MAX_VECTOR_K}, the largest k with an explicit count vector")
    return [0] * (params.k - 1)


def score(counts: IpSolution, params: HarmonicParams) -> Fraction:
    """mu plus the per-class gains counts[j-1]*(1/j - mu/(j+1)), exact."""
    _check_vector(counts, params)
    total = params.mu
    for j, c in enumerate(counts, start=1):
        if c:
            total += c * (Fraction(1, j) - params.mu / (j + 1))
    return total


def cost(counts: IpSolution, params: HarmonicParams) -> Fraction:
    """Knapsack load sum counts[j-1]/(j+1), exact."""
    _check_vector(counts, params)
    return sum((Fraction(c, j + 1) for j, c in enumerate(counts, start=1) if c), Fraction(0))


def is_feasible(counts: IpSolution, params: HarmonicParams) -> bool:
    """Strict test cost < 1; no epsilon anywhere."""
    return cost(counts, params) < 1


def _scaled_problem(params: HarmonicParams):
    """Integer rescaling of cost steps and score gains.

    Costs are multiplied by d = lcm(2..k) and scores by m_scale = q*lcm(1..k)
    where mu = p/q; both stay exact because j and j+1 divide lcm(1..k).
    """
    k = params.k
    big = math.lcm(*range(1, k + 1)) if k > 1 else 1
    d = math.lcm(*range(2, k + 1)) if k > 1 else 1
    p, q = params.mu.numerator, params.mu.denominator
    steps = [d // (j + 1) for j in range(1, k)]
    gains = [q * big // j - p * big // (j + 1) for j in range(1, k)]
    return d, steps, q * big, gains, p * big


def solve_brute(params: HarmonicParams) -> SolveReport:
    """Maximize the score over all feasible count vectors.

    Ties break toward the lexicographically smallest vector, which is simply
    the first maximizer the enumeration order reaches. feasible_count is the
    number of feasible vectors; nodes_visited counts the candidate slot
    assignments examined, including the one per slot that triggers the cost
    cutoff.
    """
    if params.k > BRUTE_CAP:
        raise ValueError(f"k={params.k} exceeds the exhaustive-search cap {BRUTE_CAP}")
    counts = zero_counts(params)
    d, steps, m_scale, gains, base = _scaled_problem(params)
    k = params.k
    best: Optional[int] = None
    best_counts: IpSolution = ()
    n_feasible = 0
    nodes = 0

    def extend(pos: int, load: int, gained: int) -> None:
        nonlocal best, best_counts, n_feasible, nodes
        if pos == k - 1:
            n_feasible += 1
            if best is None or gained > best:
                best = gained
                best_counts = tuple(counts)
            return
        step = steps[pos]
        gain = gains[pos]
        for value in range(pos + 2):
            nodes += 1
            new_load = load + value * step
            if new_load >= d:
                break
            counts[pos] = value
            extend(pos + 1, new_load, gained + value * gain)
        counts[pos] = 0

    extend(0, 0, base)
    assert best is not None  # the all-zero vector is always feasible
    return SolveReport(Fraction(best, m_scale), best_counts, n_feasible, nodes)
