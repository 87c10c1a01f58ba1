"""Fast paths to the optimal score: closed form, greedy, and a dispatcher.

For mu >= 1 the optimum is reached on a prefix of the reciprocal-splitting
sequence: let m be the last class whose score coefficient is positive (0 if
none is) and q the last sequence index with term <= m; then the optimum
equals the reciprocal prefix sum through q+1 plus (mu-1)/r_{q+1}.
greedy_solution builds that same prefix one increment at a time. With k = 1
(no classes) or mu >= 2 (every coefficient 1/j - mu/(j+1) non-positive) m is
0, so Q = 0, r_1 = S_1 = 1 and both routes give mu, the score of the
all-zero vector.
Both routes are checked against the exhaustive solver in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .harmonic import HarmonicParams
from .ip_model import IpSolution, SolveReport, score, solve_brute, zero_counts
from .sylvester import sylvester_rows

__all__ = [
    "SolveOutcome",
    "compute_m",
    "closed_form_pieces",
    "solve_closed_form",
    "greedy_solution",
    "solve",
]


@dataclass(frozen=True)
class SolveOutcome:
    """Optimal (or greedy) score together with which route produced it."""

    opt: Fraction
    method: str
    counts: Optional[IpSolution] = None
    report: Optional[SolveReport] = None


def compute_m(params: HarmonicParams) -> int:
    """Largest class index with a strictly positive score coefficient, or 0.

    Equals ceil(1 / max(mu - 1, 1/k)) - 1, evaluated with exact rational
    arithmetic; that is 0 exactly when k = 1 or mu >= 2.
    """
    slack = max(params.mu - 1, Fraction(1, params.k))
    return math.ceil(1 / slack) - 1


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
    k. For k >= 2 with mu < 1 no closed form is claimed; use solve_brute.
    """
    if params.k >= 2 and params.mu < 1:
        raise ValueError(
            f"no closed form for k >= 2 with mu < 1 (got mu={params.mu}); use solve_brute"
        )
    _, _, r_next, s_next = closed_form_pieces(params)
    return SolveOutcome(s_next + (params.mu - 1) / r_next, "closed")


def greedy_solution(params: HarmonicParams) -> tuple[IpSolution, Fraction]:
    """Greedy construction: always increment the cheapest useful class.

    Starting from all zeros, repeatedly bump the count at the smallest class
    index i <= m that keeps the cost strictly below 1. The indices picked
    turn out to be the reciprocal-splitting sequence terms up to m. For
    mu >= 1 the result is optimal (at m = 0 it is the zero vector, scoring
    mu); for mu < 1 it is a heuristic and is validated against the
    exhaustive solver in the tests only.
    """
    m = compute_m(params)
    counts = zero_counts(params)
    load = Fraction(0)
    while True:
        b = 1 / (1 - load)
        # smallest i with 1/(i+1) < 1 - load, i.e. i + 1 > b: that is floor(b)
        i = b.numerator // b.denominator
        if i > m:
            break
        counts[i - 1] += 1
        load += Fraction(1, i + 1)
    picked = tuple(counts)
    return picked, score(picked, params)


def solve(params: HarmonicParams, method: str = "auto") -> SolveOutcome:
    """Dispatch to a solver.

    auto prefers the closed form and falls back to exhaustive search only in
    the k >= 2, mu < 1 corner the closed form does not cover.
    """
    if method == "auto":
        method = "brute" if (params.k >= 2 and params.mu < 1) else "closed"
    if method == "brute":
        report = solve_brute(params)
        return SolveOutcome(report.opt, "brute", counts=report.argmax, report=report)
    if method == "closed":
        return solve_closed_form(params)
    if method == "greedy":
        counts, value = greedy_solution(params)
        return SolveOutcome(value, "greedy", counts=counts)
    raise ValueError(f"unknown method {method!r}; expected auto, brute, closed or greedy")
