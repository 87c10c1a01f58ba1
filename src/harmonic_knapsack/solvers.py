"""Fast paths to the optimal score: closed form, greedy, and a dispatcher.

For mu >= 1 the optimum is reached on a prefix of the reciprocal-splitting
sequence: let m be the last class whose score coefficient is positive (0 if
none is) and q the last sequence index with term <= m; then the optimum
equals the reciprocal prefix sum through q+1 plus (mu-1)/r_{q+1}. m comes
from ip_model.compute_m, which branch-and-bound also uses to bound its
search; this module re-exports it.
greedy_solution puts one item in each of the classes r_1, ..., r_q and
scores that vector exactly. With k = 1 (no classes) or mu >= 2 (every
coefficient 1/j - mu/(j+1) non-positive) m is 0, so Q = 0, r_1 = S_1 = 1
and both routes give mu, the score of the all-zero vector.
Both routes are checked against the exhaustive solver in the tests.

For k >= 2 and mu < 1 no closed form applies; solve's auto route sends that
corner to ip_model.solve_bnb, the branch-and-bound search, which the tests
check against the exhaustive solver and against committed optima past its cap.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Optional

from .harmonic import HarmonicParams
from .ip_model import IpSolution, SolveReport, compute_m, score, solve_bnb, solve_brute, zero_counts
from .sylvester import sylvester_rows

__all__ = [
    "SolveOutcome",
    "compute_m",
    "closed_form_pieces",
    "solve_closed_form",
    "greedy_solution",
    "solve",
]


class SolveOutcome(NamedTuple):
    """Optimal (or greedy) score together with which route produced it.

    counts is the vector reaching opt (greedy, brute and bnb); report is the
    exhaustive run's SolveReport (brute only).
    """

    opt: Fraction
    method: str
    counts: Optional[IpSolution] = None
    report: Optional[SolveReport] = None


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
    if params.k >= 2 and params.mu < 1:
        raise ValueError("no closed form for k >= 2 with mu < 1; use method auto")
    _, _, r_next, s_next = closed_form_pieces(params)
    return SolveOutcome(s_next + (params.mu - 1) / r_next, "closed")


def greedy_solution(params: HarmonicParams) -> tuple[IpSolution, Fraction]:
    """Greedy vector: one item in each class that is a sequence term <= m.

    Repeatedly incrementing the cheapest useful class while the cost stays
    below 1 picks exactly these classes, each once (the tests keep that rule
    as greedy's reference), so the vector is read off the first Q rows of the
    walk and then scored exactly. For mu >= 1 the result is optimal (at m = 0
    it is the zero vector, scoring mu); for mu < 1 it is a heuristic and is
    validated against the exhaustive solver in the tests only.
    """
    counts = zero_counts(params)
    _, q, _, _ = closed_form_pieces(params)
    for r, _ in islice(sylvester_rows(), q):
        counts[r - 1] = 1
    picked = tuple(counts)
    return picked, score(picked, params)


def solve(params: HarmonicParams, method: str = "auto") -> SolveOutcome:
    """Dispatch to a solver: auto, brute, closed or greedy.

    auto prefers the closed form. In the k >= 2, mu < 1 corner the closed
    form does not cover it runs the branch-and-bound search instead, which
    accepts k up to ip_model.BNB_CAP, and returns method "bnb" with the
    lexicographically smallest maximizer as counts and no report.
    """
    if method == "auto":
        if params.k >= 2 and params.mu < 1:
            result = solve_bnb(params)
            return SolveOutcome(result.opt, "bnb", counts=result.argmax)
        return solve_closed_form(params)
    if method == "brute":
        report = solve_brute(params)
        return SolveOutcome(report.opt, "brute", counts=report.argmax, report=report)
    if method == "closed":
        return solve_closed_form(params)
    if method == "greedy":
        counts, value = greedy_solution(params)
        return SolveOutcome(value, "greedy", counts=counts)
    raise ValueError(f"unknown method {method!r}; expected auto, brute, closed or greedy")
