"""The closed-form layer: the Sylvester walk, the closed form, greedy and a dispatcher.

For mu >= 1 the optimum is reached on a prefix of the reciprocal-splitting
sequence 1, 2, 6, 42, 1806, ..., which sylvester_rows walks: let m be the
last class whose score coefficient is positive (0 if none is) and q the last
sequence index with term <= m; then the optimum equals the reciprocal prefix
sum through q+1 plus (mu-1)/r_{q+1}. m comes from ip_model.compute_m, which
branch-and-bound also uses to bound its search.
greedy_solution puts one item in each of the classes r_1, ..., r_q and
scores that vector exactly; it alone builds an explicit count vector, so
MAX_VECTOR_K, the bound on k for such vectors, lives here. With k = 1 (no
classes) or mu >= 2 (every coefficient 1/j - mu/(j+1) non-positive) m is 0,
so Q = 0, r_1 = S_1 = 1 and both routes give mu, the score of the all-zero
vector. Both routes are checked against the exhaustive solver in the tests.

For k >= 2 and mu < 1 no closed form applies; solve's auto route sends that
corner to ip_model.solve_bnb, the branch-and-bound search, which the tests
check against the exhaustive solver and against committed optima past its cap.
The auto test and solve_closed_form's guard read mu as its lowest-terms
integer pair p/q and compare p < q, so no Fraction comparison runs. Every
route returns ip_model.SolveOutcome, and solve hands each route's record on.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterator

from .harmonic import HarmonicParams
from .ip_model import SolveOutcome, compute_m, score, solve_bnb, solve_brute

__all__ = [
    "MAX_VECTOR_K",
    "sylvester_rows",
    "closed_form_pieces",
    "solve_closed_form",
    "greedy_solution",
    "solve",
]

# Largest k for which a count vector (k - 1 entries) is built. At this k the
# greedy vector is built, scored and printed, and the all-zero witness with
# its k filler items packed, in well under a second; ten times larger the
# latter takes seconds, and far larger k cannot be allocated at all.
MAX_VECTOR_K = 10_000


def sylvester_rows() -> Iterator[tuple[int, Fraction]]:
    """Endless walk of (r_j, S_j) for j = 1, 2, ...: each term and the exact
    sum of the reciprocals of the terms up to it.

    Each term is the previous one times one more than itself, so digit counts
    roughly double per step, and a term is only built when its row is asked
    for. The sums S_j rise toward a limit just below 1.7, and the sums of
    1/(r_j + 1) for j <= t telescope to 1 - 1/r_{t+1}; the tests verify both.
    """
    r, s = 1, Fraction(0)
    while True:
        s += Fraction(1, r)
        yield r, s
        r = r * (r + 1)


def closed_form_pieces(params: HarmonicParams) -> tuple[int, int, int, Fraction]:
    """(m, Q, r_{Q+1}, S_{Q+1}) for (k, mu); (0, 0, 1, 1) where m = 0.

    Below mu = 1 the pieces still exist (m is k-1) even though no closed
    form is built from them there.
    """
    m = compute_m(params)
    for q, (term, total) in enumerate(sylvester_rows()):
        if term > m:
            return m, q, term, total


def solve_closed_form(params: HarmonicParams) -> SolveOutcome:
    """Optimal score without enumeration.

    Never materializes a count vector, so it works for astronomically large
    k. For k >= 2 with mu < 1 no closed form is claimed; use method auto.
    """
    p, q = params.mu.as_integer_ratio()
    if params.k >= 2 and p < q:
        raise ValueError("no closed form for k >= 2 with mu < 1; use method auto")
    _, _, r_next, s_next = closed_form_pieces(params)
    return SolveOutcome(s_next + (params.mu - 1) / r_next, "closed")


def greedy_solution(params: HarmonicParams) -> SolveOutcome:
    """Greedy vector: one item in each class that is a sequence term <= m.

    Repeatedly incrementing the cheapest useful class while the cost stays
    below 1 picks exactly these classes, each once (the tests keep that rule
    as greedy's reference), so the vector is read off the first Q rows of the
    walk and then scored exactly. For mu >= 1 the result is optimal (at m = 0
    it is the zero vector, scoring mu); for mu < 1 it is a heuristic and is
    validated against the exhaustive solver in the tests only.
    """
    if params.k > MAX_VECTOR_K:
        raise ValueError(f"k is above {MAX_VECTOR_K}, the largest k with an explicit count vector")
    counts = [0] * (params.k - 1)
    _, q, _, _ = closed_form_pieces(params)
    for r, _ in islice(sylvester_rows(), q):
        counts[r - 1] = 1
    picked = tuple(counts)
    return SolveOutcome(score(picked, params), "greedy", picked)


def solve(params: HarmonicParams, method: str = "auto") -> SolveOutcome:
    """Dispatch to a solver, auto, brute, closed or greedy, and return its record unchanged.

    auto prefers the closed form. In the k >= 2, mu < 1 corner the closed
    form does not cover it runs the branch-and-bound search instead, which
    accepts k up to ip_model.BNB_CAP, and returns method "bnb" with the
    lexicographically smallest maximizer as counts. That one record is
    rebuilt without the search's node count, so ip-opt keeps printing
    nodes_visited as null for bnb, as the README and its golden outputs show.
    """
    if method == "auto":
        p, q = params.mu.as_integer_ratio()
        if params.k >= 2 and p < q:
            result = solve_bnb(params)
            return SolveOutcome(result.opt, "bnb", result.counts)
        return solve_closed_form(params)
    if method == "brute":
        return solve_brute(params)
    if method == "closed":
        return solve_closed_form(params)
    if method == "greedy":
        return greedy_solution(params)
    raise ValueError(f"unknown method {method!r}; expected auto, brute, closed or greedy")
