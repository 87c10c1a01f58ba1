"""Exact optimizers over per-class item counts: exhaustive search and branch-and-bound.

A candidate assigns a non-negative count to each size class j in [1, k-1].
Its cost is sum counts[j-1]/(j+1), and it is feasible when the cost stays
strictly below 1; that bound forces counts[j-1] <= j, so the search space has
at most k! leaves. Its score is mu + sum counts[j-1]*(1/j - mu/(j+1)).
solve_brute maximizes the score by depth-first enumeration in lexicographic
order with prefix-cost pruning. Prefixes of equal load share their subtree,
so each (position, load) subtree is solved once per call, and a last-class
subtree is one rule: the largest count that fits. nodes_visited still
counts the full tree. solve_bnb reaches the same opt and argmax by
depth-first branch-and-bound with Dantzig's LP bound; it visits 29 nodes at
k = 14, mu = 1/2, where the full tree has 237,931, so it serves far larger k.
It searches only the classes 1..m with a positive score coefficient, m from
compute_m, and derives a class's step, gain and bound ratio when it visits
the class, so its cost follows the nodes visited rather than k.

Both searches run on plain integers: with L = lcm(1..k) and mu = p/q, costs
are scaled by L and scores by q*L, so every comparison is exact without
per-node Fraction churn. The public score/cost helpers stay
Fraction-based and are cross-checked against the scaled path in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .harmonic import HarmonicParams

__all__ = [
    "BNB_CAP",
    "BRUTE_CAP",
    "MAX_VECTOR_K",
    "IpSolution",
    "SolveReport",
    "compute_m",
    "score",
    "cost",
    "solve_bnb",
    "solve_brute",
    "zero_counts",
]

IpSolution = tuple[int, ...]

# Largest k the exhaustive search accepts. Shared subtrees are solved once,
# so k = 14 takes about 9-12 ms (best of 5) on a 2-vCPU VM under CPython
# 3.11, and each further step multiplies that by 1.7 to 2.7 (k = 17: about
# 110 ms). solve's auto route runs branch-and-bound below mu = 1 and the
# closed form elsewhere, so this search serves only method brute and tests.
BRUTE_CAP = 14

# Largest k the branch-and-bound search accepts, checked before lcm(1..k) is
# built. Over the 46 slopes mu = a/b < 1 with b <= 12 it takes at most about
# 1.3 ms (166 nodes) at k = 1,000 on a 2-vCPU VM under CPython 3.11, against
# 0.26 s (up to 8,600 nodes) at k = 10,000; no bound on its node count is
# proved, so the cap stays low.
BNB_CAP = 1_000

# Largest k for which a count vector (k - 1 entries) is built. At this k the
# greedy vector is built, scored and printed, and the all-zero witness with
# its k filler items packed, in well under a second; ten times larger the
# latter takes seconds, and far larger k cannot be allocated at all.
MAX_VECTOR_K = 10_000


class SolveReport(NamedTuple):
    """Outcome of one search run; branch-and-bound counts no feasible vectors (None)."""

    opt: Fraction
    argmax: IpSolution
    feasible_count: Optional[int]
    nodes_visited: int


def zero_counts(params: HarmonicParams) -> list[int]:
    """A fresh all-zero count vector for params; k above MAX_VECTOR_K is refused."""
    if params.k > MAX_VECTOR_K:
        raise ValueError(f"k is above {MAX_VECTOR_K}, the largest k with an explicit count vector")
    return [0] * (params.k - 1)


def score(counts: IpSolution, params: HarmonicParams) -> Fraction:
    """mu plus the per-class gains counts[j-1]*(1/j - mu/(j+1)), exact."""
    total = params.mu
    for j, c in enumerate(counts, start=1):
        if c:
            total += c * (Fraction(1, j) - params.mu / (j + 1))
    return total


def cost(counts: IpSolution, params: HarmonicParams) -> Fraction:
    """Knapsack load sum counts[j-1]/(j+1), exact."""
    return sum((Fraction(c, j + 1) for j, c in enumerate(counts, start=1) if c), Fraction(0))


def solve_brute(params: HarmonicParams) -> SolveReport:
    """Maximize the score over all feasible count vectors.

    Ties break toward the lexicographically smallest vector, the first
    maximizer the enumeration order reaches. feasible_count is the number of
    feasible vectors; nodes_visited counts the candidate slot assignments of
    the full enumeration tree, including the one per slot that triggers the
    cost cutoff.

    Everything below a prefix depends only on the next position and the
    prefix's scaled load, so the depth-first search solves each (position,
    load) state once and keeps its summary in a per-call memo: the best
    suffix gain, the first value at that position reaching it, and the
    feasible and node counts of the subtree. The counts of shared subtrees
    are added, not walked again. A last-class state is summarized by one
    division, the largest count that fits, so it is recomputed rather than
    stored. The argmax is rebuilt from the first-best values, and the memo
    is released before returning.
    """
    if params.k > BRUTE_CAP:
        raise ValueError(f"k exceeds the exhaustive-search cap {BRUTE_CAP}")
    k = params.k
    d = math.lcm(*range(1, k + 1))
    p, q = params.mu.numerator, params.mu.denominator
    steps = [d // (j + 1) for j in range(1, k)]
    gains = [q * d // j - p * d // (j + 1) for j in range(1, k)]
    if k == 1:  # no class to fill: the empty vector is the only leaf
        return SolveReport(params.mu, (), 1, 0)
    last = k - 2
    # one dict per class; the last class's stays empty
    memo: list[dict[int, tuple[int, int, int, int]]] = [{} for _ in range(k - 1)]

    def subtree(pos: int, load: int) -> tuple[int, int, int, int]:
        """(best suffix gain, first best value at pos, feasible, nodes) for (pos, load)."""
        step, gain = steps[pos], gains[pos]
        if pos == last:
            # counts 0..top fit (step is d/k, so top <= k - 1), then a cutoff
            # node if top < k - 1; a class that gains nothing stays empty
            top = (d - 1 - load) // step
            value = top if gain > 0 else 0
            return value * gain, value, top + 1, top + 1 + (top < k - 1)
        below = memo[pos + 1]
        # value 0 always fits and its suffix gain is >= 0, so it replaces -1
        best, choice, feasible, nodes = -1, 0, 0, 0
        for value in range(pos + 2):
            nodes += 1
            new_load = load + value * step
            if new_load >= d:
                break
            sub_best, _, sub_feasible, sub_nodes = below.get(new_load) or subtree(pos + 1, new_load)
            total = value * gain + sub_best
            if total > best:
                best, choice = total, value
            feasible += sub_feasible
            nodes += sub_nodes
        summary = memo[pos][load] = (best, choice, feasible, nodes)
        return summary

    best, _, n_feasible, nodes = subtree(0, 0)
    argmax = []
    load = 0
    for pos in range(k - 1):
        value = (memo[pos].get(load) or subtree(pos, load))[1]
        argmax.append(value)
        load += value * steps[pos]
    # subtree refers to itself, so it and memo form a cycle that only the
    # cyclic collector would free; drop the summaries now
    memo.clear()
    return SolveReport(Fraction(p * d + best, q * d), tuple(argmax), n_feasible, nodes)


def compute_m(params: HarmonicParams) -> int:
    """Largest class index with a strictly positive score coefficient, or 0.

    With mu = p/q the coefficient 1/j - mu/(j+1) of class j is positive
    exactly when j*(p - q) < q: for every class j <= k-1 when p <= q, else
    for j up to ceil(q/(p - q)) - 1. Integer arithmetic only, so k may be
    astronomically large; m is 0 exactly when k = 1 or mu >= 2.
    """
    k, p, q = params.k, params.mu.numerator, params.mu.denominator
    if p <= q:
        return k - 1
    return min(k - 1, -(-q // (p - q)) - 1)


def solve_bnb(params: HarmonicParams) -> SolveReport:
    """Maximize the score by depth-first branch-and-bound; same opt and argmax as solve_brute.

    Classes are fixed in order j = 1, 2, ..., each trying its counts from
    the largest that fits down to 0, so complete vectors are reached in
    lexicographically decreasing order; a vector that ties the incumbent
    replaces it, which leaves the lexicographically smallest maximizer. The
    incumbent starts as the zero vector. Only the classes 1..m with a
    positive gain are searched, m from compute_m (gain/step, q*(j+1)/j - p,
    falls as j grows, so they form a prefix); the rest stay at 0.

    The bound is Dantzig's: the classes still open can add at most the best
    gain/step ratio among them, (q*(j+1) - p*j)/j at the first open class j
    (0 past class m), times the free capacity. A node whose bound falls
    below the incumbent is pruned. Lowering the count of class j only lowers
    its bound, since the capacity freed is refilled at a ratio no better
    than class j's own; so a pruned count prunes every smaller count of that
    class too. Classes with no room are skipped in one step: the first class
    whose step fits in `free` is j = ceil(d/free) - 1.

    A class's step d/(j+1), gain q*d/j - p*step and ratio are derived when
    the search reaches it, so the cost follows the nodes visited rather than
    k; the only per-class lists are the m counts and the returned argmax.
    The search keeps its path on an explicit stack, the classes holding a
    positive count, so its depth is not bounded by the recursion limit.
    nodes_visited counts the count assignments made: one per class filled on
    the way down and one per count lowered on the way back.
    """
    if params.k > BNB_CAP:
        raise ValueError(f"k exceeds the branch-and-bound cap {BNB_CAP}")
    d = math.lcm(*range(1, params.k + 1))
    p, q = params.mu.numerator, params.mu.denominator
    n = compute_m(params)
    cap = d - 1  # a vector fits when its scaled load is at most d - 1
    counts = [0] * n
    path: list[int] = []  # positions holding a positive count, in order
    load = gained = best = nodes = 0
    best_path: list[tuple[int, int]] = []
    pos = 0
    while True:
        # down: fill each class that fits with its largest count, while the bound holds
        while True:
            free = cap - load
            if free:
                pos = max(pos, -(-d // free) - 2)
            if not free or pos >= n:
                if gained >= best:
                    best, best_path = gained, [(i, counts[i]) for i in path]
                break
            j = pos + 1
            if gained * j + (q * (j + 1) - p * j) * free < best * j:
                break
            step = d // (j + 1)
            value = free // step
            counts[pos] = value
            load += value * step
            gained += value * (q * d // j - p * step)
            path.append(pos)
            nodes += 1
            pos += 1
        # back: lower the deepest positive count whose bound still reaches best
        while path:
            i = path[-1]
            j = i + 1
            step = d // (j + 1)
            gain = q * d // j - p * step
            counts[i] -= 1
            load -= step
            gained -= gain
            nodes += 1
            pos = j
            # the bound's ratio at the next class j + 1; past class m it is 0
            ratio = q * (j + 2) - p * (j + 1) if j < n else 0
            if gained * (j + 1) + ratio * (cap - load) >= best * (j + 1):
                if not counts[i]:
                    path.pop()
                break
            value = counts[i]
            load -= value * step
            gained -= value * gain
            counts[i] = 0
            path.pop()
        else:
            break
    argmax = [0] * (params.k - 1)
    for i, value in best_path:
        argmax[i] = value
    return SolveReport(Fraction(p * d + best, q * d), tuple(argmax), None, nodes)
