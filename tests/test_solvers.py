import time
from fractions import Fraction
from itertools import islice

import pytest

from harmonic_knapsack.cli import MAX_K_DIGITS
from harmonic_knapsack.harmonic import HarmonicParams
from harmonic_knapsack.ip_model import MAX_VECTOR_K, SolveOutcome, compute_m, solve_bnb, solve_brute
from harmonic_knapsack.solvers import closed_form_pieces, greedy_solution, solve, solve_closed_form, sylvester_rows
from helpers import WORST_BNB_SLOPES, cost, score

F = Fraction

# r_1..r_7 = 1, 2, 6, 42, 1806, 3263442, 10650056950806
TERMS = [r for r, _ in islice(sylvester_rows(), 7)]


def oracle_m(params):
    """Largest class with positive coefficient, by direct scan; 0 if none."""
    best = 0
    for j in range(1, params.k):
        if F(1, j) - params.mu / (j + 1) > 0:
            best = j
    return best


def test_compute_m_examples():
    assert compute_m(HarmonicParams(4, F(4, 3))) == 2
    assert compute_m(HarmonicParams(7, F(7, 6))) == 5
    assert compute_m(HarmonicParams(5, F(1, 2))) == 4  # mu < 1 gives m = k-1


def test_compute_m_matches_scan():
    for k in range(2, 15):
        for mu in sorted({F(a, b) for b in range(1, 13) for a in range(0, b * min(k, 3) + 1)}):
            params = HarmonicParams(k, mu)
            assert compute_m(params) == oracle_m(params), (k, mu)


def test_compute_m_at_huge_k():
    k = 10**100
    assert compute_m(HarmonicParams(k, 1 + F(1, 10**50))) == 10**50 - 1
    assert compute_m(HarmonicParams(k, F(1, 2))) == k - 1
    assert compute_m(HarmonicParams(k, F(2))) == 0


def test_compute_m_preconditions():
    # k = 1 has no classes and mu >= 2 no positive coefficient: m = 0
    assert compute_m(HarmonicParams(1, F(1))) == 0
    assert compute_m(HarmonicParams(1, F(0))) == 0
    assert compute_m(HarmonicParams(4, F(2))) == 0
    assert compute_m(HarmonicParams(10**30, F(3))) == 0
    assert compute_m(HarmonicParams(4, F(199, 100))) == 1


def test_coefficient_characterization():
    # positive up to m, non-positive right after (when that class exists)
    for k in range(2, 12):
        for mu in [F(1), F(11, 10), F(4, 3), F(7, 4)]:
            params = HarmonicParams(k, mu)
            m = compute_m(params)
            for j in range(1, m + 1):
                assert F(1, j) - mu / (j + 1) > 0
            if m + 1 <= k - 1:
                assert F(1, m + 1) - mu / (m + 2) <= 0


def test_closed_form_examples():
    params = HarmonicParams(7, F(7, 6))
    assert closed_form_pieces(params)[1] == (1, 2)
    assert solve_closed_form(params).opt == F(61, 36)
    params = HarmonicParams(10, F(80, 71))
    assert closed_form_pieces(params)[:2] == (7, (1, 2, 6))
    assert solve_closed_form(params).opt == F(2525, 1491)
    # mu >= 2 and k = 1 have m = 0, so S_1 + (mu - 1)/r_1 is mu itself
    params = HarmonicParams(3, F(3))
    assert (closed_form_pieces(params), solve_closed_form(params).opt) == ((0, (), 1, 1), F(3))
    params = HarmonicParams(1, F(2, 3))
    assert (closed_form_pieces(params), solve_closed_form(params).opt) == ((0, (), 1, 1), F(2, 3))


def test_closed_form_rejects_small_mu():
    with pytest.raises(ValueError, match="use method auto"):
        solve_closed_form(HarmonicParams(3, F(1, 2)))


def test_closed_form_pieces_are_consistent():
    params = HarmonicParams(12, F(12, 11))
    _, _, r_next, s_next = closed_form_pieces(params)
    assert r_next == 42
    assert s_next == F(71, 42)
    assert solve_closed_form(params).opt == s_next + (F(12, 11) - 1) / r_next == F(391, 231)


def test_closed_form_pieces():
    # mu < 1 still has pieces (m = k-1), printed by ip-opt --explain
    assert closed_form_pieces(HarmonicParams(5, F(1, 2))) == (4, (1, 2), 6, F(5, 3))
    assert closed_form_pieces(HarmonicParams(10, F(80, 71))) == (7, (1, 2, 6), 42, F(71, 42))
    assert closed_form_pieces(HarmonicParams(1, F(1))) == (0, (), 1, 1)
    assert closed_form_pieces(HarmonicParams(4, F(2))) == (0, (), 1, 1)
    for k in range(2, 12):
        for mu in [F(1), F(11, 10), F(4, 3), F(7, 4)]:
            params = HarmonicParams(k, mu)
            _, _, r_next, s_next = closed_form_pieces(params)
            assert solve_closed_form(params).opt == s_next + (mu - 1) / r_next
    # with mu = 1/2, m = k - 1: the classes gain a term exactly when m
    # reaches it (j = 1 would give k = 1, 2, 3, which j = 2 already covers)
    half = F(1, 2)
    for j in range(2, 7):
        r = TERMS[j - 1]
        for k, q in [(r, j - 1), (r + 1, j), (r + 2, j)]:
            m, classes, r_next, s_next = closed_form_pieces(HarmonicParams(k, half))
            assert (m, classes) == (k - 1, tuple(TERMS[:q])), (j, k)
            assert r_next == TERMS[q] and r_next > m >= TERMS[q - 1]
            assert s_next == sum(F(1, t) for t in TERMS[: q + 1])
    # k = r_7 and r_7 + 1 (Q steps from 6 to 7), astronomically large k
    # and the largest k the CLI reads, against a plain integer walk (its
    # terms <= m are the classes) and a plain Fraction sum
    for k in [TERMS[6], TERMS[6] + 1, 10**100, 10**1000, 10**MAX_K_DIGITS - 1]:
        m = k - 1
        terms = [1]
        while terms[-1] <= m:
            terms.append(terms[-1] * (terms[-1] + 1))
        pieces = closed_form_pieces(HarmonicParams(k, half))
        assert pieces == (m, tuple(terms[:-1]), terms[-1], sum(F(1, t) for t in terms))


def test_greedy_examples():
    out = greedy_solution(HarmonicParams(7, F(7, 6)))
    assert out.counts == (1, 1, 0, 0, 0, 0)
    assert out.opt == F(61, 36)
    out = greedy_solution(HarmonicParams(4, F(4, 3)))
    assert (out.counts, out.opt) == ((1, 1, 0), F(31, 18))
    out = greedy_solution(HarmonicParams(2, F(3, 2)))
    assert (out.counts, out.opt) == ((1,), F(7, 4))
    assert out.opt == solve_brute(HarmonicParams(2, F(3, 2))).opt


def test_greedy_preconditions():
    # at m = 0 no term is taken (Q = 0): the zero vector, which scores mu
    assert greedy_solution(HarmonicParams(1, F(1))) == SolveOutcome(F(1), "greedy", ())
    assert greedy_solution(HarmonicParams(1, F(1, 3))) == SolveOutcome(F(1, 3), "greedy", ())
    assert greedy_solution(HarmonicParams(5, F(2))) == SolveOutcome(F(2), "greedy", (0, 0, 0, 0))
    assert greedy_solution(HarmonicParams(5, F(9, 2))) == SolveOutcome(F(9, 2), "greedy", (0, 0, 0, 0))
    counts = greedy_solution(HarmonicParams(MAX_VECTOR_K, F(3, 2))).counts
    assert len(counts) == MAX_VECTOR_K - 1
    with pytest.raises(ValueError, match="count vector"):
        greedy_solution(HarmonicParams(MAX_VECTOR_K + 1, F(3, 2)))


def cheapest_class_greedy(params):
    """Reference greedy: from all zeros, increment the smallest class i <= m
    whose item keeps the cost strictly below 1, until none does."""
    m = compute_m(params)
    counts = [0] * (params.k - 1)
    load = F(0)
    while True:
        b = 1 / (1 - load)
        # smallest i with 1/(i+1) < 1 - load, i.e. i + 1 > b: that is floor(b)
        i = b.numerator // b.denominator
        if i > m:
            return tuple(counts)
        counts[i - 1] += 1
        load += F(1, i + 1)


def test_greedy_picks_sequence_prefix():
    # greedy reads its classes, the sequence terms <= m, off
    # closed_form_pieces; the cheapest-class loop finds its vector
    # independently, below mu = 1 too
    slopes = sorted({F(a, b) for b in range(1, 7) for a in range(0, 5 * b // 2 + 1)})
    for k in [*range(1, 60), 200, 1000, MAX_VECTOR_K]:
        for mu in slopes:
            if mu > k:
                continue
            params = HarmonicParams(k, mu)
            out = greedy_solution(params)
            assert out.counts == cheapest_class_greedy(params), (k, mu)
            _, _, r_next, s_next = closed_form_pieces(params)
            assert cost(out.counts, params) == 1 - F(1, r_next), (k, mu)
            assert out.opt == s_next + (mu - 1) / r_next, (k, mu)
            # greedy returns the telescoped value; the vector's exact score checks it
            assert score(out.counts, params) == out.opt, (k, mu)


def test_prefix_costs_telescope():
    # cost of the indicator of the first q terms is 1 - 1/r_{q+1}
    k = 50
    params = HarmonicParams(k, F(51, 50))
    for q in range(0, 4):
        counts = [0] * (k - 1)
        for r in TERMS[:q]:
            counts[r - 1] = 1
        assert cost(tuple(counts), params) == 1 - F(1, TERMS[q])


def test_prefix_scores_increase():
    # each extra sequence term strictly improves the score
    k = 50
    params = HarmonicParams(k, F(51, 50))
    q_top = 4  # r_4 = 42 <= m = 49
    values = []
    for q in range(0, q_top + 1):
        counts = [0] * (k - 1)
        for r in TERMS[:q]:
            counts[r - 1] = 1
        values.append(score(tuple(counts), params))
    for lo, hi in zip(values, values[1:]):
        assert lo < hi
    assert values[-1] == greedy_solution(params).opt


def test_three_routes_agree_on_sample_grid():
    grid = sorted({F(a, b) for b in range(1, 7) for a in range(b, 2 * b)})
    for k in range(2, 9):
        for mu in grid:
            params = HarmonicParams(k, mu)
            brute = solve_brute(params).opt
            closed = solve_closed_form(params).opt
            out = greedy_solution(params)
            assert brute == closed == out.opt == score(out.counts, params), (k, mu)
    # m = 0: k = 1 has no classes, mu >= 2 no positive coefficient
    edge = [(1, mu) for mu in (F(0), F(1, 2), F(1))]
    edge += [(k, mu) for k in range(2, 9) for mu in (F(2), F(5, 2), F(3)) if mu <= k]
    for k, mu in edge:
        params = HarmonicParams(k, mu)
        brute = solve_brute(params).opt
        closed = solve_closed_form(params).opt
        out = greedy_solution(params)
        assert brute == closed == out.opt == score(out.counts, params) == mu, (k, mu)


def test_greedy_below_one_is_heuristic():
    # below mu = 1 the greedy value can trail the optimum; k=5, mu=0 is the
    # smallest miss: greedy stops at 3/2 while (1,0,1,1) scores 19/12
    params = HarmonicParams(5, F(0))
    assert greedy_solution(params).opt == F(3, 2)
    assert solve_brute(params).opt == F(19, 12)
    # it still produces a feasible vector and never beats the optimum
    for mu in [F(0), F(1, 2), F(7, 8)]:
        for k in range(2, 9):
            p = HarmonicParams(k, mu)
            out = greedy_solution(p)
            assert cost(out.counts, p) < 1
            assert out.opt <= solve_brute(p).opt


def test_solve_dispatch():
    out = solve(HarmonicParams(12, F(12, 11)), method="auto")
    assert (out.opt, out.method) == (F(391, 231), "closed")
    out = solve(HarmonicParams(3, F(1, 2)), method="auto")
    assert (out.opt, out.method) == (solve_brute(HarmonicParams(3, F(1, 2))).opt, "bnb")
    out = solve(HarmonicParams(1, F(0)), method="auto")
    assert (out.opt, out.method) == (F(0), "closed")
    out = solve(HarmonicParams(4, F(4, 3)), method="greedy")
    assert (out.opt, out.counts) == (F(31, 18), (1, 1, 0))
    # "bnb" names auto's search record, not a route of its own
    for method in ("simplex", "bnb"):
        with pytest.raises(ValueError, match="expected auto, brute, closed or greedy"):
            solve(HarmonicParams(4, F(4, 3)), method=method)
    # auto tests mu's integer pair p < q; both sides of mu = 1
    tiny = F(1, 10**100)
    out = solve(HarmonicParams(2, F(1)))
    assert (out.opt, out.method) == (solve_brute(HarmonicParams(2, F(1))).opt, "closed")
    assert solve(HarmonicParams(10**100, F(1))).method == "closed"
    params = HarmonicParams(3, 1 - tiny)
    out, brute = solve(params), solve_brute(params)
    assert (out.opt, out.method, out.counts) == (brute.opt, "bnb", brute.argmax)
    assert solve(HarmonicParams(3, 1 + tiny)).method == "closed"
    out = solve(HarmonicParams(1, F(1, 2)))
    assert (out.opt, out.method) == (F(1, 2), "closed")
    for k in (2, 3, 10**100):
        with pytest.raises(ValueError, match="use method auto"):
            solve_closed_form(HarmonicParams(k, 1 - tiny))


def test_results_expose_their_fields():
    assert SolveOutcome._fields == ("opt", "method", "counts", "feasible_count", "nodes_visited")
    params = HarmonicParams(3, F(1, 2))
    out = solve(params)
    assert type(out) is SolveOutcome
    assert out == (F(19, 12), "bnb", (1, 1), None, 4)
    assert out == solve_bnb(params)
    out = solve(params, method="brute")
    assert (out.opt, out.method, out.counts, out.feasible_count, out.nodes_visited) == (F(19, 12), "brute", (1, 1), 5, 8)
    # argmax is counts under its old name, read only
    assert solve_brute(params).argmax == solve_brute(params).counts == (1, 1)
    with pytest.raises(AttributeError):
        out.argmax = (0, 0)
    out = solve(HarmonicParams(4, F(4, 3)), method="closed")
    assert out == (F(31, 18), "closed", None, None, None)
    with pytest.raises(AttributeError):
        out.opt = F(0)
    # every route returns the one record
    routes = [solve_brute, solve_bnb, solve_closed_form, greedy_solution]
    routes += [lambda params, method=method: solve(params, method) for method in ("auto", "brute", "closed", "greedy")]
    for params in (HarmonicParams(4, F(4, 3)), HarmonicParams(1, F(1, 2))):
        for route in routes:
            assert type(route(params)) is SolveOutcome, (route, params)
    # solve returns each route's record unchanged, auto on both sides of mu = 1
    above, below = HarmonicParams(4, F(4, 3)), HarmonicParams(4, F(1, 2))
    cases = [(above, "auto", solve_closed_form), (below, "auto", solve_bnb), (above, "closed", solve_closed_form)]
    cases += [(params, "brute", solve_brute) for params in (above, below)]
    cases += [(params, "greedy", greedy_solution) for params in (above, below)]
    for params, method, route in cases:
        assert solve(params, method) == route(params), (params, method)


def test_auto_just_below_one_picks_the_greedy_classes():
    # at mu = 1 - 10^-30 the search's optimum is greedy's vector, one item in
    # each Sylvester class: branch-and-bound reaches the closed form's classes
    mu = 1 - F(1, 10**30)
    for k in [*range(2, 301), 1000]:
        params = HarmonicParams(k, mu)
        out = solve(params, "auto")
        assert out.method == "bnb" and out.counts == greedy_solution(params).counts, k


def test_auto_below_one_at_k_1000_within_budget():
    # 46 slopes mu = a/b < 1 with b <= 12 at k = 1,000; each takes a few ms
    # on a 2-vCPU VM, so 5 s is a wide budget
    slopes = sorted({F(a, b) for b in range(1, 13) for a in range(b)})
    start = time.perf_counter()
    for mu in slopes:
        params = HarmonicParams(1000, mu)
        out = solve(params)
        assert out == solve_bnb(params)
        assert cost(out.counts, params) < 1 and score(out.counts, params) == out.opt
    assert time.perf_counter() - start < 5.0


def test_auto_below_one_at_max_vector_k_within_budget():
    # auto answers every k up to MAX_VECTOR_K below mu = 1; the worst slope,
    # 3/7 + 1/10^4299, took about 0.4 s on a 2-vCPU VM
    for mu in WORST_BNB_SLOPES:
        params = HarmonicParams(MAX_VECTOR_K, mu)
        start = time.perf_counter()
        out = solve(params)
        assert time.perf_counter() - start < 2.0, mu
        assert out.method == "bnb" and len(out.counts) == MAX_VECTOR_K - 1
        assert cost(out.counts, params) < 1 and score(out.counts, params) == out.opt
    with pytest.raises(ValueError, match="k is above 10000, the largest k with an explicit count vector"):
        solve(HarmonicParams(MAX_VECTOR_K + 1, F(1, 2)))
