import gc
import math
import sys
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_knapsack.harmonic import HarmonicParams
from harmonic_knapsack.ip_model import BNB_CAP, SolveOutcome, cost, score, solve_bnb, solve_brute
from harmonic_knapsack.solvers import greedy_solution, solve_closed_form
from reference_values import BEYOND_BRUTE_CAP

F = Fraction


def reference_brute(params):
    """The plain depth-first search that solve_brute memoizes: every node is walked.

    Same integer scaling (costs times d = lcm(1..k), scores times q*d for
    mu = p/q), same lexicographic order and node counting, no shared subtrees.
    """
    k, p, q = params.k, params.mu.numerator, params.mu.denominator
    d = math.lcm(*range(1, k + 1))
    steps = [d // (j + 1) for j in range(1, k)]
    gains = [q * d // j - p * d // (j + 1) for j in range(1, k)]
    counts = [0] * (k - 1)
    best = None
    best_counts = ()
    n_feasible = 0
    nodes = 0

    def extend(pos, load, gained):
        nonlocal best, best_counts, n_feasible, nodes
        if pos == k - 1:
            n_feasible += 1
            if best is None or gained > best:
                best = gained
                best_counts = tuple(counts)
            return
        for value in range(pos + 2):
            nodes += 1
            new_load = load + value * steps[pos]
            if new_load >= d:
                break
            counts[pos] = value
            extend(pos + 1, new_load, gained + value * gains[pos])
        counts[pos] = 0

    extend(0, 0, p * d)
    return SolveOutcome(Fraction(best, q * d), "brute", best_counts, n_feasible, nodes)


def reference_bnb(params):
    """The list-based branch-and-bound that solve_bnb derives lazily: same tree, same order.

    Every class's step, gain and bound ratio is tabulated up front, m is
    found by scanning the gains, and the bound's ratio past class m is a 0
    sentinel at the end of the table.
    """
    k, p, q = params.k, params.mu.numerator, params.mu.denominator
    d = math.lcm(*range(1, k + 1))
    steps = [d // (j + 1) for j in range(1, k)]
    gains = [q * d // j - p * d // (j + 1) for j in range(1, k)]
    n = 0
    while n < len(gains) and gains[n] > 0:
        n += 1
    nums = [q * (j + 1) - p * j for j in range(1, n + 1)] + [0]
    dens = [*range(1, n + 1), 1]
    cap = d - 1
    counts = [0] * n
    path = []
    load = gained = best = nodes = 0
    best_path = []
    pos = 0
    while True:
        while True:
            free = cap - load
            if free:
                pos = max(pos, -(-d // free) - 2)
            if not free or pos >= n:
                if gained >= best:
                    best, best_path = gained, [(i, counts[i]) for i in path]
                break
            if gained * dens[pos] + nums[pos] * free < best * dens[pos]:
                break
            step = steps[pos]
            value = free // step
            counts[pos] = value
            load += value * step
            gained += value * gains[pos]
            path.append(pos)
            nodes += 1
            pos += 1
        while path:
            i = path[-1]
            step, gain = steps[i], gains[i]
            counts[i] -= 1
            load -= step
            gained -= gain
            nodes += 1
            pos = i + 1
            if gained * dens[pos] + nums[pos] * (cap - load) >= best * dens[pos]:
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
    argmax = [0] * (k - 1)
    for i, value in best_path:
        argmax[i] = value
    return SolveOutcome(Fraction(p * d + best, q * d), "bnb", tuple(argmax), None, nodes)


def oracle_search(params):
    """(opt, argmax) by a depth-first search that shares no shortcut with solve_bnb.

    Exact Fractions, no scaling. Every class 1..k-1 is branched in order, each
    on every count that keeps the cost below 1, largest first. A count is
    pruned on its own bound alone: the capacity left times the best
    gain/size ratio over the classes after it (0 if none gains), read from a
    suffix table built by a plain scan. Ties go to the lexicographically
    smallest vector by an explicit tuple comparison. It recurses once per
    class, so the caller must allow k frames.
    """
    k, mu = params.k, params.mu
    sizes = [F(1, j + 1) for j in range(1, k)]
    gains = [F(1, j) - mu * size for j, size in zip(range(1, k), sizes)]
    ratios = [F(0)] * k  # ratios[i]: best over the classes at positions i and later
    for i in range(k - 2, -1, -1):
        ratios[i] = max(ratios[i + 1], gains[i] / sizes[i])
    counts = [0] * (k - 1)
    best = None

    def fill(i, free, gained):
        nonlocal best
        if i == k - 1:
            vector = tuple(counts)
            if best is None or gained > best[0] or (gained == best[0] and vector < best[1]):
                best = (gained, vector)
            return
        for c in range(math.ceil(free / sizes[i]) - 1, -1, -1):
            rest, got = free - c * sizes[i], gained + c * gains[i]
            if best is None or got + rest * ratios[i + 1] >= best[0]:
                counts[i] = c
                fill(i + 1, rest, got)
        counts[i] = 0

    fill(0, F(1), F(0))
    return mu + best[0], best[1]


def oracle_feasible(k):
    """Independent enumeration: full cartesian product, then filter on cost.

    No pruning and no shared code with the package walker; product() already
    yields lexicographic order.
    """
    out = []
    for counts in product(*[range(j + 1) for j in range(1, k)]):
        if sum(F(c, j + 1) for j, c in zip(range(1, k), counts)) < 1:
            out.append(counts)
    return out


def oracle_opt(params):
    return max(score(z, params) for z in oracle_feasible(params.k))


def test_score_examples():
    assert score((0, 0, 0), HarmonicParams(4, F(4, 3))) == F(4, 3)
    assert score((1, 1, 0), HarmonicParams(4, F(4, 3))) == F(31, 18)
    assert score((1, 0), HarmonicParams(3, F(3, 2))) == F(7, 4)


def test_cost_examples():
    assert cost((0, 0, 0), HarmonicParams(4, F(4, 3))) == 0
    assert cost((1, 1, 0), HarmonicParams(4, F(4, 3))) == F(5, 6)
    assert cost((1, 2), HarmonicParams(3, F(3, 2))) == F(7, 6)


def test_is_feasible():
    # feasible means a cost strictly below 1, with no epsilon anywhere
    assert cost((1, 1, 0), HarmonicParams(4, F(4, 3))) < 1
    assert cost((1, 2), HarmonicParams(3, F(3, 2))) >= 1
    assert cost((), HarmonicParams(1, F(1))) < 1


def test_enumeration_small_cases():
    assert oracle_feasible(2) == [(0,), (1,)]
    assert oracle_feasible(3) == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]
    assert oracle_feasible(1) == [()]
    for k, mu, n in [(1, F(0), 1), (2, F(1), 2), (3, F(1), 5), (3, F(3, 2), 5)]:
        assert solve_brute(HarmonicParams(k, mu)).feasible_count == n


def test_enumeration_matches_product_oracle():
    # same feasible set, and the argmax is the first maximizer in
    # lexicographic order, for every slope that produces ties or none
    for k in range(1, 8):
        feasible = oracle_feasible(k)
        for mu in [F(0), F(1, 2), F(1), F(3, 2), F(2)]:
            if mu > k:
                continue
            params = HarmonicParams(k, mu)
            rep = solve_brute(params)
            assert rep.feasible_count == len(feasible)
            scores = [score(z, params) for z in feasible]
            assert rep.counts == feasible[scores.index(max(scores))]


def test_count_within_factorial():
    for k in range(1, 9):
        n = solve_brute(HarmonicParams(k, F(1))).feasible_count
        assert n <= math.factorial(k)


def test_solve_brute_examples():
    rep = solve_brute(HarmonicParams(4, F(4, 3)))
    assert (rep.opt, rep.counts) == (F(31, 18), (1, 1, 0))
    rep = solve_brute(HarmonicParams(2, F(2)))
    # zero coefficient at class 1 makes (0,) and (1,) tie; lexicographic wins
    assert (rep.opt, rep.counts) == (F(2), (0,))
    rep = solve_brute(HarmonicParams(1, F(3, 4)))
    assert (rep.opt, rep.counts) == (F(3, 4), ())


def test_solve_brute_matches_oracle():
    for k in range(1, 7):
        for mu in [F(0), F(1, 2), F(1), F(4, 3), F(2), F(5, 2)]:
            if mu > k:
                continue
            params = HarmonicParams(k, mu)
            assert solve_brute(params).opt == oracle_opt(params)


def test_solve_brute_matches_reference_search():
    # the whole report: opt, the lexicographically smallest argmax, and the
    # feasible and node counts of the full tree
    for k in range(1, 13):
        for mu in sorted({F(a, b) for b in range(1, 13) for a in range(0, b * min(k, 3) + 1)}):
            params = HarmonicParams(k, mu)
            assert solve_brute(params) == reference_brute(params), (k, mu)
    for k in (13, 14):
        for mu in (F(0), F(1, 2), F(11, 12), F(3, 2)):
            params = HarmonicParams(k, mu)
            assert solve_brute(params) == reference_brute(params), (k, mu)


def test_counts_at_the_cap_depend_on_k_alone():
    for mu in (F(0), F(1, 2), F(1), F(14)):
        rep = solve_brute(HarmonicParams(14, mu))
        assert (rep.feasible_count, rep.nodes_visited) == (101_065, 237_931)


def test_memo_is_released():
    # the per-call memo peaks near 1 MiB at k = 14; nothing of it may outlive
    # the call, even with the cyclic collector off
    params = HarmonicParams(14, F(1, 2))
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        solve_brute(params)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
        gc.enable()
    assert peak < 1.5 * 2**20
    assert held < 256 * 2**10


def test_report_is_consistent():
    params = HarmonicParams(6, F(6, 5))
    rep = solve_brute(params)
    assert cost(rep.counts, params) < 1
    assert score(rep.counts, params) == rep.opt
    assert rep.feasible_count == len(oracle_feasible(6))
    assert rep.nodes_visited >= rep.feasible_count
    assert solve_brute(params) == rep  # deterministic


def test_bound_sandwich():
    for k in range(1, 9):
        for mu in [F(0), F(1, 3), F(1), F(3, 2), F(2), F(k)]:
            if mu > k:
                continue
            params = HarmonicParams(k, mu)
            opt = solve_brute(params).opt
            assert mu <= opt <= max(mu, F(2))


def test_mu_at_least_two_collapses():
    for k in range(2, 9):
        for mu in [F(2), F(5, 2), F(k)]:
            if mu > k:
                continue
            assert solve_brute(HarmonicParams(k, mu)).opt == mu


def test_strictly_monotone_in_mu():
    grid = sorted({F(a, b) for b in range(1, 7) for a in range(0, 2 * b)})
    for k in range(2, 7):
        opts = [solve_brute(HarmonicParams(k, mu)).opt for mu in grid if mu <= k]
        for lo, hi in zip(opts, opts[1:]):
            assert lo < hi


def test_monotone_in_k():
    for mu in [F(0), F(1, 2), F(1), F(7, 6), F(3, 2), F(2)]:
        opts = [solve_brute(HarmonicParams(k, mu)).opt for k in range(2, 9)]
        for lo, hi in zip(opts, opts[1:]):
            assert lo <= hi


def test_zeroing_nonpositive_coefficients_never_hurts():
    for k in range(2, 7):
        for mu in [F(1, 2), F(1), F(4, 3), F(9, 5)]:
            params = HarmonicParams(k, mu)
            coeff = [F(1, j) - mu / (j + 1) for j in range(1, k)]
            for z in oracle_feasible(k):
                trimmed = tuple(0 if coeff[i] <= 0 else c for i, c in enumerate(z))
                assert cost(trimmed, params) < 1
                assert score(trimmed, params) >= score(z, params)


def test_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        solve_brute(HarmonicParams(15, F(3, 2)))
    with pytest.raises(ValueError, match="cap"):
        solve_brute(HarmonicParams(20, F(1)))


def test_solve_bnb_matches_solve_brute_below_one():
    # opt and the lexicographically smallest argmax on all 1,040 cases
    # k = 2..14, mu = a/b < 1 with b <= 16
    slopes = sorted({F(a, b) for b in range(1, 17) for a in range(b)})
    for k in range(2, 15):
        for mu in slopes:
            params = HarmonicParams(k, mu)
            rep, out = solve_brute(params), solve_bnb(params)
            assert (out.opt, out.counts) == (rep.opt, rep.counts), (k, mu)
    # the stored steps and gains on a 61-digit p and q
    params = HarmonicParams(14, F(10**60 - 1, 10**60))
    rep, out = solve_brute(params), solve_bnb(params)
    assert (out.opt, out.counts) == (rep.opt, rep.counts)


def test_solve_bnb_walks_the_reference_tree():
    # the whole report, nodes_visited included, so the lazily derived classes
    # are visited in the same order and pruned at the same nodes
    for k in range(1, 61):
        for mu in sorted({F(a, b) for b in range(1, 13) for a in range(0, b * min(k, 3) + 1)}):
            params = HarmonicParams(k, mu)
            assert solve_bnb(params) == reference_bnb(params), (k, mu)
    for k in (200, BNB_CAP):
        for mu in (F(0), F(1, 12), F(1, 2), F(5, 7), F(11, 12), F(1), F(13, 12), F(3, 2)):
            params = HarmonicParams(k, mu)
            assert solve_bnb(params) == reference_bnb(params), (k, mu)


def test_solve_bnb_matches_committed_optima_past_the_brute_cap():
    for k, by_mu in BEYOND_BRUTE_CAP.items():
        for mu, (opt, classes) in by_mu.items():
            argmax = tuple(classes.get(j, 0) for j in range(1, k))
            out = solve_bnb(HarmonicParams(k, mu))
            assert (out.opt, out.counts) == (opt, argmax), (k, mu)


def test_solve_bnb_matches_the_shortcut_free_oracle():
    # past the exhaustive search's reach: k = 15..40 and two large k, below
    # mu = 1, against a search with none of solve_bnb's shortcuts
    slopes = sorted({F(a, b) for b in range(1, 6) for a in range(b)})
    cases = [(k, mu) for k in range(15, 41) for mu in slopes]
    cases += [(k, mu) for k in (200, BNB_CAP) for mu in (F(0), F(1, 2), F(5, 12), F(9, 11))]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + BNB_CAP)  # the oracle is k frames deep
    try:
        for k, mu in cases:
            params = HarmonicParams(k, mu)
            out = solve_bnb(params)
            assert (out.opt, out.counts) == oracle_search(params), (k, mu)
    finally:
        sys.setrecursionlimit(limit)


def test_solve_bnb_matches_closed_form_and_greedy_from_one():
    slopes = sorted({F(a, b) for b in range(1, 7) for a in range(b, 5 * b // 2 + 1)})
    for k in [*range(1, 41), 64, 100, 128, 200]:
        for mu in slopes:
            if mu > k:
                continue
            params = HarmonicParams(k, mu)
            rep = solve_bnb(params)
            assert rep.opt == solve_closed_form(params).opt == greedy_solution(params).opt, (k, mu)
            assert cost(rep.counts, params) < 1 and score(rep.counts, params) == rep.opt, (k, mu)


@st.composite
def small_params(draw):
    k = draw(st.integers(1, 14))
    b = draw(st.integers(1, 60))
    return HarmonicParams(k, F(draw(st.integers(0, b * min(k, 3))), b))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(small_params())
def test_solve_bnb_agrees_with_the_other_routes(params):
    rep = solve_bnb(params)
    brute = solve_brute(params)
    assert (rep.opt, rep.counts) == (brute.opt, brute.counts)
    if params.mu >= 1 or params.k == 1:
        assert rep.opt == solve_closed_form(params).opt == greedy_solution(params).opt


def test_solve_bnb_prunes():
    # the full tree at k = 14 has 237,931 nodes
    assert solve_bnb(HarmonicParams(14, F(1, 2))).nodes_visited == 29
    assert solve_bnb(HarmonicParams(1, F(1, 2))) == (F(1, 2), "bnb", (), None, 0)


def test_solve_bnb_recursion_stays_shallow():
    # only a class holding a positive count adds a frame; distinct classes
    # j <= BNB_CAP - 1 with sum 1/(j+1) < 1 are at most 632, the largest
    # such set being the classes with the smallest reciprocals, so even the
    # worst case stays below the default recursion limit of 1,000
    total, most = F(0), 0
    for j in range(BNB_CAP - 1, 0, -1):
        total += F(1, j + 1)
        if total >= 1:
            break
        most += 1
    assert most == 632
    frames = 0
    frame = sys._getframe()
    while frame is not None:
        frames += 1
        frame = frame.f_back
    assert frames + most + 2 < 1000  # solve_bnb, and branch once more than the classes
    # the searches actually run use a handful of frames
    slopes = sorted({F(a, b) for b in range(1, 13) for a in range(b)})
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(frames + 20)
    try:
        for k in (200, BNB_CAP):
            for mu in slopes:
                solve_bnb(HarmonicParams(k, mu))
    finally:
        sys.setrecursionlimit(limit)


def test_solve_bnb_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        solve_bnb(HarmonicParams(14, F(1, 2)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bnb_cap_enforced():
    with pytest.raises(ValueError, match="branch-and-bound cap"):
        solve_bnb(HarmonicParams(BNB_CAP + 1, F(1, 2)))
    # refused before lcm(1..k) is built
    with pytest.raises(ValueError, match="branch-and-bound cap"):
        solve_bnb(HarmonicParams(10**30, F(1, 2)))
