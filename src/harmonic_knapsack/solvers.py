"""The closed-form layer: the Sylvester walk, the closed form, greedy and a dispatcher.

For mu >= 1 the optimum is reached on a prefix of the reciprocal-splitting
sequence 1, 2, 6, 42, 1806, ..., which sylvester_walk yields on integers,
each term with the numerator of its reciprocal prefix sum: let m be the
last class whose score coefficient is positive (0 if none is) and q the
last sequence index with term <= m; then the optimum equals the reciprocal
prefix sum through q+1 plus (mu-1)/r_{q+1}. closed_form_pieces walks the
sequence once, collects the classes r_1, ..., r_q on the way and builds
that sum as its one Fraction. m comes from ip_model.compute_m, which
branch-and-bound also uses to bound its search.
greedy_solution puts one item in each of those classes and returns the
same telescoped value; like branch-and-bound it builds an explicit count
vector, so it refuses k above ip_model.MAX_VECTOR_K through
ip_model.check_vector_k. With k = 1 (no classes) or mu >= 2 (every
coefficient 1/j - mu/(j+1) non-positive) m is 0, so Q = 0, r_1 = S_1 = 1
and both routes give mu, the score of the all-zero vector. Both routes are
checked against the exhaustive solver in the tests.

For k >= 2 and mu < 1 no closed form applies; solve's auto route sends that
corner to ip_model.solve_bnb, the branch-and-bound search, which the tests
check against the exhaustive solver, against committed optima past that
solver's cap and against a shortcut-free oracle.
The auto test and solve_closed_form's guard read mu as its lowest-terms
integer pair p/q and compare p < q, so no Fraction comparison runs. solve
runs auto itself and every other method through ROUTES, the one table of
method names, which cli's --method reads for its choices. Every route
returns ip_model.SolveOutcome, which solve passes on unchanged.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from .harmonic import HarmonicParams
from .ip_model import SolveOutcome, check_vector_k, compute_m, solve_bnb, solve_brute

__all__ = [
    "sylvester_walk",
    "sylvester_rows",
    "closed_form_pieces",
    "solve_closed_form",
    "greedy_solution",
    "solve",
]


def sylvester_walk() -> Iterator[tuple[int, int]]:
    """Endless walk of (r_t, n_t) for t = 1, 2, ...: each term and the integer
    numerator of the reciprocal prefix sum S_t = n_t / r_t.

    Each term is the previous one times one more than itself,
    r_{t+1} = r_t * (r_t + 1), so digit counts roughly double per step, and a
    term is only built when it is asked for. As r_{t+1} is a multiple of
    every earlier term, S_{t+1} = S_t + 1/r_{t+1} has the numerator
    n_{t+1} = n_t * (r_t + 1) + 1 over it (n_t / r_t need not be in lowest
    terms). This is the one walk of the sequence: the rows and
    closed_form_pieces read it, and greedy and the witness take their
    classes from closed_form_pieces.
    """
    r, n = 1, 1
    while True:
        yield r, n
        r, n = r * (r + 1), n * (r + 1) + 1


def sylvester_rows() -> Iterator[tuple[int, Fraction]]:
    """Endless walk of (r_j, S_j) for j = 1, 2, ...: each term and the exact
    sum of the reciprocals of the terms up to it.

    The sums S_j rise toward a limit just below 1.7, and the sums of
    1/(r_j + 1) for j <= t telescope to 1 - 1/r_{t+1}; the tests verify both.
    """
    return ((r, Fraction(n, r)) for r, n in sylvester_walk())


def closed_form_pieces(params: HarmonicParams) -> tuple[int, tuple[int, ...], int, Fraction]:
    """(m, classes, r_{Q+1}, S_{Q+1}) for (k, mu); (0, (), 1, 1) where m = 0.

    classes is (r_1, ..., r_Q), the sequence terms <= m, so Q = len(classes):
    the greedy classes, collected on the one walk that also reaches r_{Q+1}.
    Below mu = 1 the pieces still exist (m is k-1) even though no closed
    form is built from them there. The walk stays on integers, and the one
    Fraction is S_{Q+1}.
    """
    m = compute_m(params)
    classes = []
    for r, n in sylvester_walk():
        if r > m:
            return m, tuple(classes), r, Fraction(n, r)
        classes.append(r)


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
    as greedy's reference), so the vector is read off closed_form_pieces'
    classes. Its cost telescopes to 1 - 1/r_{Q+1}, so its score is the
    closed form's S_{Q+1} + (mu-1)/r_{Q+1} for every mu; the tests check
    that value against the vector's exact score. For mu >= 1 the result is
    optimal (at m = 0 it is the zero vector, scoring mu); for mu < 1 it is a
    heuristic and is validated against the exhaustive solver in the tests
    only.
    """
    check_vector_k(params.k)
    counts = [0] * (params.k - 1)
    _, classes, r_next, s_next = closed_form_pieces(params)
    for r in classes:
        counts[r - 1] = 1
    return SolveOutcome(s_next + (params.mu - 1) / r_next, "greedy", tuple(counts))


# method name -> solver for every route but auto, in the order cli's --method lists them
ROUTES = {"brute": solve_brute, "closed": solve_closed_form, "greedy": greedy_solution}


def solve(params: HarmonicParams, method: str = "auto") -> SolveOutcome:
    """Dispatch to a solver, auto, brute, closed or greedy, and return its record unchanged.

    auto prefers the closed form. In the k >= 2, mu < 1 corner the closed
    form does not cover it runs the branch-and-bound search instead, which
    accepts k up to ip_model.MAX_VECTOR_K, as greedy does, and returns
    method "bnb" with the lexicographically smallest maximizer as counts.
    Every other method is looked up in ROUTES; "bnb" names a record, not a
    route, so it is refused like any unknown name.
    """
    if method == "auto":
        p, q = params.mu.as_integer_ratio()
        if params.k >= 2 and p < q:
            return solve_bnb(params)
        return solve_closed_form(params)
    if method not in ROUTES:
        raise ValueError(f"unknown method {method!r}; expected auto, brute, closed or greedy")
    return ROUTES[method](params)
