"""The count-vector model (score, cost, compute_m), its two exact searches and their answer record.

MAX_VECTOR_K bounds k wherever an explicit count vector is built, here in
solve_bnb and in solvers.greedy_solution, through one check,
check_vector_k; solve_brute has its own smaller cap. The closed form and
greedy live in solvers. Every route, here and in solvers, returns one
SolveOutcome.

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
class's step and gain when it visits the class, so its cost follows the
nodes visited rather than k. It recurses once per class it takes, which
its docstring proves is at most 45 classes deep for k up to MAX_VECTOR_K,
and its incumbent is a copy of the counts.

Both searches run on plain integers: with d = lcm(1..k) and mu = p/q, costs
are scaled by d and scores by q*d, so every comparison is exact without
per-node Fraction churn. The public score/cost helpers stay
Fraction-based and are cross-checked against the scaled path in the tests.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .harmonic import HarmonicParams

__all__ = [
    "BRUTE_CAP",
    "IpSolution",
    "MAX_VECTOR_K",
    "SolveOutcome",
    "check_vector_k",
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

# Largest k for which a count vector (k - 1 entries) is built: greedy's, the
# witness's and branch-and-bound's. At this k the greedy vector is built,
# scored and printed, and the all-zero witness with its k filler items
# packed, in well under a second, and branch-and-bound took at most about
# 0.3 s on the slopes measured (a 2-vCPU VM, CPython 3.11); ten times larger
# the witness takes seconds, and far larger k cannot be allocated at all.
MAX_VECTOR_K = 10_000


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


def check_vector_k(k: int) -> None:
    """Refuse k above MAX_VECTOR_K, before anything of size k is built."""
    if k > MAX_VECTOR_K:
        raise ValueError(f"k is above {MAX_VECTOR_K}, the largest k with an explicit count vector")


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

    Counts are 0 or 1. For mu > 0 no maximizer holds two items of a class j:
    two cost 1 at j = 1, and for j >= 2 one item of class i = ceil((j-1)/2)
    costs no more than the two, 1/(i+1) <= 2/(j+1), and scores strictly
    more (1/i > 2/j for odd j; for even j, 1/i = 2/j and mu/(i+1) <
    2*mu/(j+1)). At mu = 0 the even-j swap only ties, so a 0/1 maximizer
    exists and opt is exact, but that the lexicographically smallest
    maximizer is 0/1 is not proved: it rests on the tests' grid checks
    against solve_brute (k <= 14) and a shortcut-free oracle (k = 15..40,
    200 and 1,000), both with mu = 0.

    Classes are visited in order j = 1, 2, ..., each taken once, then
    skipped, so complete vectors are reached in lexicographically
    decreasing order; a vector that ties the incumbent replaces it, which
    leaves the lexicographically smallest maximizer. The incumbent is a copy
    of the m counts, taken at each complete vector that reaches it, and
    starts as the zero vector. Only the classes 1..m with a positive gain
    are searched, m from compute_m (gain/step, q*(j+1)/j - p, falls as j
    grows, so they form a prefix); the rest stay at 0. Classes with no room
    are skipped in one step: the first class whose step fits in `free` is
    j = ceil(d/free) - 1, so the class visited always fits.

    Two bounds prune a node at the first open class j when they fall below
    the incumbent. Dantzig's: the open classes add at most the best
    gain/step ratio among them, (q*(j+1) - p*j)/j at class j, times the free
    capacity. The cardinality bound: every class costs at least d/k, so at
    most free // (d/k) more items fit, and each gains at most class j's
    gain, since the gains fall with j over classes 1..m.

    A class's step d/(j+1) and gain q*d/j - p*step are derived when the
    search visits it; the per-class lists are the m counts, the incumbent
    and the returned counts (the incumbent plus k-1-m zeros). nodes_visited
    counts the count assignments made: one per class taken and one per
    class set back to 0.

    Depth. A call of branch recurses once per class it takes and loops on
    past the classes it skips, so branch is one frame deeper than the most
    items a path holds. Let n = m, let r_t and S_t be the Sylvester terms
    and their reciprocal sums (solvers.sylvester_rows), and let Q be the
    last t with r_t <= n (n = 0 takes nothing). In score units, a node with
    taken set T, load L = sum_T 1/(i+1), free capacity F < 1 - L and first
    open class j has Dantzig bound mu + sum_T (1/i - mu/(i+1)) +
    (1 + 1/j - mu)*F = mu + (1 - mu)*(L + F) + sum_T 1/(i(i+1)) + F/j; for
    mu <= 1 that is below 1 + sum_T 1/(i(i+1)) + (1 - L)/j, which does not
    depend on mu. Holding r_1..r_{t-1} leaves F = 1/r_t - 1/d, so the first
    class that fits is r_t (r_t(r_t+1) divides d). Nothing prunes while the
    incumbent is the zero vector, so the first dive takes r_1..r_Q, and
    once it returns the incumbent scores at least S_Q + mu/r_{Q+1} >= S_Q.
    A node that holds r_1..r_{t-1} and skips r_t has L = 1 - 1/r_t and
    j >= r_t + 1, and 1/(r_s(r_s+1)) = 1/r_{s+1}, so its bound is below
    1 + (S_t - 1) + 1/r_{t+1} = S_{t+1} <= S_Q for t <= Q - 1: it is pruned
    before it takes another item (a later j only lowers the bound). For
    mu > 1, which auto never sends here, the same node is pruned: with
    rho(j) = 1 + 1/j - mu, the incumbent's gains rho(r)/(r+1) of r = r_t
    and rho(R)/(R+1) of R = r_{t+1}, less rho(r+1)/r, which the open
    classes' part of the bound stays below, come to mu/(R(R+1)) >= 0. So a
    path with more than Q - 2 items starts with r_1..r_{Q-1}, which leave
    less than 1/r_Q of capacity, and each further item costs at least
    1/(n+1): a path holds at most Q - 1 + ceil((n+1)/r_Q) - 1 items. For
    k <= MAX_VECTOR_K that is at most 45, first reached at k = 1,765
    (n = 1,764, r_Q = 42), so branch is at most 46 frames deep, far below
    CPython's default recursion limit of 1,000; the runs measured went no
    deeper than 7 frames of branch.
    """
    check_vector_k(params.k)
    d = math.lcm(*range(1, params.k + 1))
    p, q = params.mu.as_integer_ratio()
    qd = q * d
    least = d // params.k  # the step of class k - 1, the smallest
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
            if gained + free // least * gain < best:
                return
            counts[pos] = 1
            nodes += 2  # taken, then set back to 0
            branch(j, free - step, gained + gain)
            counts[pos] = 0
            pos = j

    branch(0, d - 1, 0)  # a vector fits when its scaled load is at most d - 1
    del branch  # it refers to itself; drop the cycle rather than leave it to gc
    argmax = tuple(incumbent) + (0,) * (params.k - 1 - n)
    return SolveOutcome(Fraction(p * d + best, qd), "bnb", argmax, None, nodes)
