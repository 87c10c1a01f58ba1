"""The count-vector model (score, cost, compute_m), its two exact searches and their answer record.

The closed form, greedy and MAX_VECTOR_K, the bound on explicit count
vectors, live in solvers; each search here has its own smaller cap. Every
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
depth-first branch-and-bound with Dantzig's LP bound; it visits 29 nodes at
k = 14, mu = 1/2, where the full tree has 237,931, so it serves far larger k.
It searches only the classes 1..m with a positive score coefficient, m from
compute_m, and derives a class's step, gain and bound ratio when it visits
the class, so its cost follows the nodes visited rather than k. It
recurses once per class holding a positive count, at most 632 classes deep
at k = 1,000, and its incumbent is a copy of the count vector.

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
    "IpSolution",
    "SolveOutcome",
    "compute_m",
    "score",
    "cost",
    "solve_bnb",
    "solve_brute",
]

IpSolution = tuple[int, ...]

# Largest k the exhaustive search accepts. Shared subtrees are solved once,
# so k = 14 takes about 9-12 ms (best of 5) on a 2-vCPU VM under CPython
# 3.11, and each further step multiplies that by 1.7 to 2.7 (k = 17: about
# 110 ms). solve's auto route runs branch-and-bound below mu = 1 and the
# closed form elsewhere, so this search serves only method brute and tests.
BRUTE_CAP = 14

# Largest k the branch-and-bound search accepts, checked before lcm(1..k) is
# built. Over the 46 slopes mu = a/b < 1 with b <= 12 it takes at most 0.8 to
# 1.3 ms (166 nodes; best of 5 runs, as the VM's speed drifts) at
# k = 1,000 on a 2-vCPU VM under CPython 3.11, against 0.15-0.17 s (up to
# 8,600 nodes) at k = 10,000; no bound on its node count is proved, so the
# cap stays low. Its recursion depth is bounded by the classes that can hold
# a positive count at once: 632 at this cap, below CPython's default limit of
# 1,000, but 6,321 at k = 10,000, so raising the cap must re-check the depth.
BNB_CAP = 1_000


class SolveOutcome(NamedTuple):
    """One route's answer: the optimal (or greedy) score and the route that produced it.

    counts is the vector reaching opt, None from the closed form; feasible_count
    comes from the exhaustive search only, nodes_visited from either search.
    """

    opt: Fraction
    method: str
    counts: Optional[IpSolution] = None
    feasible_count: Optional[int] = None
    nodes_visited: Optional[int] = None

    @property
    def argmax(self) -> Optional[IpSolution]:
        """counts under its old name, read only; it stays until perfbench reads counts."""
        return self.counts


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
    d = math.lcm(*range(1, k + 1))
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

    Classes are fixed in order j = 1, 2, ..., each trying its counts from
    the largest that fits down to 0, so complete vectors are reached in
    lexicographically decreasing order; a vector that ties the incumbent
    replaces it, which leaves the lexicographically smallest maximizer. The
    incumbent is a copy of the m counts, taken at each complete vector that
    reaches it, and starts as the zero vector. Only the classes 1..m with a
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
    the search fills it, so the cost follows the nodes visited rather than
    k; the per-class lists are the m counts, the incumbent and the returned
    counts (the incumbent plus k-1-m zeros). A call of branch fills a class
    with its largest count and recurses once per positive count, lowering
    the count by one after each subtree; step and gain stay in its locals,
    so a back-track divides nothing. At count 0 the call loops on to the
    next class, so only classes holding a positive count add a frame: their
    j have sum 1/(j+1) < 1, so at k = BNB_CAP there are at most 632, below
    the default recursion limit (the 46 slopes mu = a/b < 1 with b <= 12
    need at most 6 frames of branch there).
    nodes_visited counts the count assignments made: one per class filled on
    the way down and one per count lowered on the way back.
    """
    if params.k > BNB_CAP:
        raise ValueError(f"k exceeds the branch-and-bound cap {BNB_CAP}")
    d = math.lcm(*range(1, params.k + 1))
    p, q = params.mu.as_integer_ratio()
    qd = q * d
    n = compute_m(params)
    counts = [0] * n
    incumbent = counts[:]  # the zero vector, score 0
    best = nodes = 0

    def branch(pos: int, free: int, gained: int) -> None:
        """Search the classes from position pos on, with scaled capacity free left."""
        nonlocal best, incumbent, nodes
        while True:
            if free:
                skip = -(-d // free) - 2
                if skip > pos:
                    pos = skip
            if not free or pos >= n:
                if gained >= best:
                    best, incumbent = gained, counts[:]
                return
            j = pos + 1
            if gained * j + (q * (j + 1) - p * j) * free < best * j:
                return
            step = d // (j + 1)
            gain = qd // j - p * step
            # the bound's ratio at the next class j + 1; past class m it is 0
            ratio = q * (j + 2) - p * (j + 1) if j < n else 0
            counts[pos] = value = free // step
            room = free - value * step
            got = gained + value * gain
            nodes += 1
            while value:
                branch(j, room, got)
                value -= 1
                counts[pos] = value
                room += step
                got -= gain
                nodes += 1
                if got * (j + 1) + ratio * room < best * (j + 1):
                    counts[pos] = 0
                    return
            pos, free, gained = j, room, got

    branch(0, d - 1, 0)  # a vector fits when its scaled load is at most d - 1
    del branch  # it refers to itself; drop the cycle rather than leave it to gc
    argmax = tuple(incumbent) + (0,) * (params.k - 1 - n)
    return SolveOutcome(Fraction(p * d + best, qd), "bnb", argmax, None, nodes)
