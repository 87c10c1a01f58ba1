"""The count-vector model (compute_m), its two exact searches and their answer record.

MAX_VECTOR_K bounds k wherever an explicit count vector is built, here in
solve_bnb and in solvers.greedy_solution, and for analysis.build_witness's
bundle of up to k items, through one check, check_vector_k; solve_brute has
its own smaller cap. The closed form and greedy live in solvers. Every
route, here and in solvers, returns one SolveOutcome.

A candidate assigns a non-negative count to each size class j in [1, k-1].
Its cost is sum counts[j-1]/(j+1), and it is feasible when the cost stays
strictly below 1; that bound forces counts[j-1] <= j, so the search space has
at most k! leaves. Its score is mu + sum counts[j-1]*(1/j - mu/(j+1)).
solve_brute maximizes the score by depth-first enumeration in lexicographic
order with prefix-cost pruning. Prefixes of equal load share their subtree,
so each (position, load) subtree is solved once per call, and a last-class
subtree is one rule: the largest count that fits. nodes_visited still
counts the full tree. solve_bnb reaches the same opt and argmax by
depth-first branch-and-bound over 0/1 counts with Dantzig's LP bound and a
cardinality bound; it visits 18 nodes at k = 14, mu = 1/2, where the full
tree has 237,931, so it serves far larger k. It searches only the classes
1..m with a positive score coefficient, m from compute_m, and derives a
class's step and gain when it visits the class, so after the first query
at a k its cost follows the nodes visited rather than k. It walks an
explicit path of the classes it takes, so its stack does not grow with k,
and its incumbent is a copy of that path.

Both searches run on plain integers: with d = lcm(1..k) and mu = p/q, costs
are scaled by d and scores by q*d, so every comparison is exact without
per-node Fraction churn. d is computed once per k, after the cap check, and
kept for the last 64 k. The tests keep Fraction-based score and cost as
their exact oracle and check the scaled path against them.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .harmonic import HarmonicParams

__all__ = [
    "BRUTE_CAP",
    "MAX_VECTOR_K",
    "SolveOutcome",
    "check_vector_k",
    "compute_m",
    "solve_bnb",
    "solve_brute",
]

# Largest k the exhaustive search accepts. Shared subtrees are solved once,
# so k = 14 takes about 9-12 ms (best of 5) on a 2-vCPU VM under CPython
# 3.11, and each further step multiplies that by 1.7 to 2.7 (k = 17: about
# 110 ms). solve's auto route runs branch-and-bound below mu = 1 and the
# closed form elsewhere, so this search serves only method brute and tests.
BRUTE_CAP = 14

# Largest k for which a count vector (k - 1 entries) is built: greedy's, the
# witness's and branch-and-bound's. At this k the greedy vector is built,
# scored and printed, and the all-zero witness with its k filler items
# packed, in well under a second, and branch-and-bound took at most about
# 0.4 s on the slopes measured (a 2-vCPU VM, CPython 3.11); ten times larger
# the witness takes seconds, and far larger k cannot be allocated at all.
MAX_VECTOR_K = 10_000


class SolveOutcome(NamedTuple):
    """One route's answer: the optimal (or greedy) score and the route that produced it.

    counts is the vector reaching opt, None from the closed form; feasible_count
    comes from the exhaustive search only, nodes_visited from either search.
    """

    opt: Fraction
    method: str
    counts: Optional[tuple[int, ...]] = None
    feasible_count: Optional[int] = None
    nodes_visited: Optional[int] = None

    @property
    def argmax(self) -> Optional[tuple[int, ...]]:
        """counts under its old name, read only; it stays until perfbench reads counts."""
        return self.counts


def check_vector_k(k: int) -> None:
    """Refuse k above MAX_VECTOR_K, before anything of size k is built."""
    if k > MAX_VECTOR_K:
        raise ValueError(f"k is above {MAX_VECTOR_K}, the largest k with an explicit count vector")


@functools.lru_cache(maxsize=64)
def _lcm_to(k: int) -> int:
    """d = lcm(1..k), built once per k and kept for the last 64 k.

    At k <= MAX_VECTOR_K, d has at most 14,447 bits, so the 64 ints take
    about 122 KiB at most.
    """
    return math.lcm(*range(1, k + 1))


def solve_brute(params: HarmonicParams) -> SolveOutcome:
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
    if k == 1:  # no class to fill: the empty vector is the only leaf
        return SolveOutcome(params.mu, "brute", (), 1, 0)
    d = _lcm_to(k)
    p, q = params.mu.as_integer_ratio()
    steps = [d // (j + 1) for j in range(1, k)]
    gains = [q * d // j - p * d // (j + 1) for j in range(1, k)]
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
    return SolveOutcome(Fraction(p * d + best, q * d), "brute", tuple(argmax), n_feasible, nodes)


def compute_m(params: HarmonicParams) -> int:
    """Largest class index with a strictly positive score coefficient, or 0.

    With mu = p/q the coefficient 1/j - mu/(j+1) of class j is positive
    exactly when j*(p - q) < q: for every class j <= k-1 when p <= q, else
    for j up to ceil(q/(p - q)) - 1. Integer arithmetic only, so k may be
    astronomically large; m is 0 exactly when k = 1 or mu >= 2.
    """
    k = params.k
    p, q = params.mu.as_integer_ratio()
    if p <= q:
        return k - 1
    return min(k - 1, -(-q // (p - q)) - 1)


def solve_bnb(params: HarmonicParams) -> SolveOutcome:
    """Maximize the score by depth-first branch-and-bound; same opt and argmax as solve_brute.

    Counts are 0 or 1. For mu > 0 no maximizer holds two items of a class j:
    two cost 1 at j = 1, and for j >= 2 one item of class i = ceil((j-1)/2)
    costs no more than the two, 1/(i+1) <= 2/(j+1), and scores strictly
    more (1/i > 2/j for odd j; for even j, 1/i = 2/j and mu/(i+1) <
    2*mu/(j+1)). At mu = 0 the even-j swap only ties, so a 0/1 maximizer
    exists and opt is exact. Up to k = 14 the tests count the maximizers
    over the full tree at mu = 0 and find one at each k, so the question of
    which maximizer is lexicographically smallest cannot arise there.
    Beyond k = 14, that the lexicographically smallest maximizer is 0/1 is
    not proved: it rests on the tests' grid check against a shortcut-free
    oracle (k = 15..40, 200 and 1,000) with mu = 0.

    Classes are visited in order j = 1, 2, ..., each taken once, then
    skipped, so complete vectors are reached in lexicographically
    decreasing order; a vector that ties the incumbent replaces it, which
    leaves the lexicographically smallest maximizer. The search is one loop
    over an explicit path: (pos, free, gained) is pushed before a class is
    taken and popped to set it back to 0 and go on after it. The incumbent
    is a copy of the path at each complete vector that reaches it, at most
    one entry per class taken, and starts empty, the zero vector. Only the
    classes 1..m with a positive gain are searched, m from compute_m
    (gain/step, q*(j+1)/j - p, falls as j grows, so they form a prefix); the
    rest stay at 0. Classes with no room are skipped in one step: the first
    class whose step fits in `free` is j = ceil(d/free) - 1, so the class
    visited always fits.

    Two bounds prune a node at the first open class j when they fall below
    the incumbent. Dantzig's: the open classes add at most the best
    gain/step ratio among them, (q*(j+1) - p*j)/j at class j, times the free
    capacity. The cardinality bound: every class costs at least d/k, so at
    most free // (d/k) more items fit, and each gains at most class j's
    gain, since the gains fall with j over classes 1..m.

    A class's step d/(j+1) and gain q*d/j - p*step are derived when the
    search visits it; the only per-class list is the returned counts, built
    once at the end. nodes_visited counts the count assignments made: one
    per class taken and one per class set back to 0.
    """
    check_vector_k(params.k)
    d = _lcm_to(params.k)
    p, q = params.mu.as_integer_ratio()
    qd = q * d
    least = d // params.k  # the step of class k - 1, the smallest
    n = compute_m(params)
    path: list[tuple[int, int, int]] = []  # (pos, free, gained) before each class taken
    incumbent = []  # the zero vector, score 0
    best = nodes = 0
    pos, free, gained = 0, d - 1, 0  # a vector fits when its scaled load is at most d - 1
    while True:
        while True:  # take classes until a complete vector or a bound stops the dive
            if free:
                skip = -(-d // free) - 2
                if skip > pos:
                    pos = skip
            if not free or pos >= n:
                if gained >= best:
                    best, incumbent = gained, path[:]
                break
            j = pos + 1
            if gained * j + (q * (j + 1) - p * j) * free < best * j:
                break
            step = d // (j + 1)
            gain = qd // j - p * step
            if gained + free // least * gain < best:
                break
            path.append((pos, free, gained))
            nodes += 2  # taken, then set back to 0
            pos, free, gained = j, free - step, gained + gain
        if not path:
            break
        pos, free, gained = path.pop()  # set the last class taken back to 0 and go on after it
        pos += 1
    argmax = [0] * (params.k - 1)
    for taken, _, _ in incumbent:
        argmax[taken] = 1
    return SolveOutcome(Fraction(p * d + best, qd), "bnb", tuple(argmax), None, nodes)
