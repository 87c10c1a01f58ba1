import gc
import math
import sys
import traceback
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_knapsack import ip_model
from harmonic_knapsack.harmonic import HarmonicParams
from harmonic_knapsack.ip_model import MAX_VECTOR_K, SolveOutcome, solve_bnb, solve_brute
from harmonic_knapsack.solvers import greedy_solution, solve_closed_form
from helpers import WORST_BNB_SLOPES, cost, score
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
    found by scanning the gains, and the search is a loop over an explicit
    path of the classes taken (each holds one item) rather than recursion.
    """
    k, p, q = params.k, params.mu.numerator, params.mu.denominator
    d = math.lcm(*range(1, k + 1))
    steps = [d // (j + 1) for j in range(1, k)]
    gains = [q * d // j - p * d // (j + 1) for j in range(1, k)]
    n = 0
    while n < len(gains) and gains[n] > 0:
        n += 1
    nums = [q * (j + 1) - p * j for j in range(1, n + 1)]
    dens = list(range(1, n + 1))
    least = d // k
    cap = d - 1
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
                    best, best_path = gained, path[:]
                break
            if gained * dens[pos] + nums[pos] * free < best * dens[pos]:
                break
            if gained + free // least * gains[pos] < best:
                break
            load += steps[pos]
            gained += gains[pos]
            path.append(pos)
            nodes += 1
            pos += 1
        if not path:
            break
        i = path.pop()  # set the last class taken back to 0 and go on after it
        load -= steps[i]
        gained -= gains[i]
        nodes += 1
        pos = i + 1
    argmax = [0] * (k - 1)
    for i in best_path:
        argmax[i] = 1
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


def test_maximizers_hold_at_most_one_item_per_class():
    # the swap lemma solve_bnb relies on: for mu > 0, two items of class j
    # lose to one of class ceil((j-1)/2), so the exhaustive search's
    # maximizer is a 0/1 vector
    slopes = sorted({F(a, b) for b in range(1, 9) for a in range(1, 3 * b + 1)})
    for k in range(2, 13):
        for mu in slopes:
            if mu > k:
                continue
            assert max(solve_brute(HarmonicParams(k, mu)).counts) <= 1, (k, mu)


def maximizers_at_mu_zero(k):
    """(opt, number of count vectors reaching it) at mu = 0, over the full tree.

    Every feasible vector is counted: each (position, load) state keeps its
    best suffix gain and the number of suffixes reaching it, and a state
    that several prefixes reach adds its count once per prefix.
    """
    d = math.lcm(*range(1, k + 1))
    states = {}

    def suffix(pos, load):
        if pos == k - 1:
            return 0, 1
        if (pos, load) not in states:
            j = pos + 1
            best, ways = -1, 0
            for value in range(j + 1):
                new_load = load + value * (d // (j + 1))
                if new_load >= d:
                    break
                gained, n = suffix(pos + 1, new_load)
                gained += value * (d // j)
                if gained > best:
                    best, ways = gained, n
                elif gained == best:
                    ways += n
            states[pos, load] = best, ways
        return states[pos, load]

    best, ways = suffix(0, 0)
    return Fraction(best, d), ways


def test_maximizer_at_mu_zero_is_unique_up_to_the_brute_cap():
    # so solve_bnb's 0/1 maximizer at mu = 0 is the only one, and the
    # lexicographically smallest trivially
    for k in range(2, ip_model.BRUTE_CAP + 1):
        params = HarmonicParams(k, F(0))
        brute = solve_brute(params)
        assert maximizers_at_mu_zero(k) == (brute.opt, 1), k
        assert max(brute.counts) == 1 and solve_bnb(params).counts == brute.counts, k


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
    for k in (200, 1000):
        for mu in (F(0), F(1, 12), F(1, 2), F(5, 7), F(11, 12), F(1), F(13, 12), F(3, 2)):
            params = HarmonicParams(k, mu)
            assert solve_bnb(params) == reference_bnb(params), (k, mu)
    # at the largest k, about 0.2 s a case
    for mu in (F(0), F(1, 2), F(11, 12), 1 - F(1, 10**60)):
        params = HarmonicParams(MAX_VECTOR_K, mu)
        assert solve_bnb(params) == reference_bnb(params), mu


def test_solve_bnb_matches_committed_optima_past_the_brute_cap():
    for k, by_mu in BEYOND_BRUTE_CAP.items():
        for mu, (opt, classes) in by_mu.items():
            argmax = tuple(classes.get(j, 0) for j in range(1, k))
            out = solve_bnb(HarmonicParams(k, mu))
            assert (out.opt, out.counts) == (opt, argmax), (k, mu)


def test_solve_bnb_matches_the_shortcut_free_oracle():
    # past the exhaustive search's reach: k = 15..40 and two large k, below
    # mu = 1, against a search with none of solve_bnb's shortcuts; the
    # slopes next to 1 and 0 are where the cardinality bound is tight
    slopes = sorted({F(a, b) for b in range(1, 6) for a in range(b)})
    cases = [(k, mu) for k in range(15, 41) for mu in slopes]
    cases += [(k, mu) for k in (200, 1000) for mu in (F(0), F(1, 2), F(5, 12), F(9, 11))]
    cases += [(2000, F(1, 2)), (2000, F(3, 7))]  # past k = 1,000, about 0.4 s each
    edges = (1 - F(1, 10**60), F(999, 1000), F(1, 10**60))
    cases += [(k, mu) for k in (40, 200, 1000) for mu in edges]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + max(k for k, _ in cases))  # the oracle is k frames deep
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
    assert solve_bnb(HarmonicParams(14, F(1, 2))).nodes_visited == 18
    assert solve_bnb(HarmonicParams(1, F(1, 2))) == (F(1, 2), "bnb", (), None, 0)


def deepest_bnb_stack(cases):
    """The most ip_model frames on the stack at any Python call while solve_bnb runs the cases."""
    depths = [0]

    def count_frames(frame, event, arg):
        if event == "call":
            depths.append(sum(f.f_code.co_filename == ip_model.__file__ for f, _ in traceback.walk_stack(frame)))

    sys.setprofile(count_frames)
    try:
        for params in cases:
            solve_bnb(params)
    finally:
        sys.setprofile(None)
    return max(depths)


def test_solve_bnb_stack_does_not_grow_with_k():
    # k = 1 takes nothing; the 46 slopes at k = 1,765 and the worst slopes
    # at MAX_VECTOR_K take long paths. Frame counts, unlike recursion
    # limits, are the same on every CPython version
    slopes = sorted({F(a, b) for b in range(1, 13) for a in range(b)})
    empty = deepest_bnb_stack([HarmonicParams(1, F(1, 2))])
    assert 0 < empty == deepest_bnb_stack([HarmonicParams(1765, mu) for mu in slopes])
    assert empty == deepest_bnb_stack([HarmonicParams(MAX_VECTOR_K, mu) for mu in WORST_BNB_SLOPES])


def test_solve_bnb_leaves_no_cyclic_garbage():
    gc.collect()
    gc.disable()
    try:
        solve_bnb(HarmonicParams(14, F(1, 2)))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_bnb_cap_enforced():
    # the refusal is cheap: lcm(1..k) is never built
    misses = ip_model._lcm_to.cache_info().misses
    for k in (MAX_VECTOR_K + 1, 10**30):
        with pytest.raises(ValueError, match="^k is above 10000, the largest k with an explicit count vector$"):
            solve_bnb(HarmonicParams(k, F(1, 2)))
    assert ip_model._lcm_to.cache_info().misses == misses


def test_lcm_cache_is_exact_and_bounded():
    lcm_to = ip_model._lcm_to
    for k in [*range(1, 301), 1765, 4000, MAX_VECTOR_K]:
        assert lcm_to(k) == math.lcm(*range(1, k + 1)), k
    # the sweep above passed 303 distinct k through a 64-entry cache
    assert 0 < lcm_to.cache_info().currsize <= 64


def test_solve_bnb_reads_the_same_with_a_cold_or_warm_lcm():
    # the whole record, nodes_visited included. Cold: the cache is cleared
    # before every call. Warm: slopes outer and k inner, so each k's d is
    # read from the cache, except after every eighth slope, where 64 other
    # k evict every entry and the next slope builds each d again
    lcm_to = ip_model._lcm_to
    slopes = sorted({F(a, b) for b in range(1, 13) for a in range(b)})
    ks = [*range(2, 41), 200, 1000]
    cold = {}
    for k in ks:
        for mu in slopes:
            lcm_to.cache_clear()
            cold[k, mu] = solve_bnb(HarmonicParams(k, mu))
    lcm_to.cache_clear()
    for i, mu in enumerate(slopes):
        if i % 8 == 7:
            for filler in range(41, 105):
                lcm_to(filler)
        for k in ks:
            assert solve_bnb(HarmonicParams(k, mu)) == cold[k, mu], (k, mu)
    info = lcm_to.cache_info()
    assert info.hits > 0 and info.misses == 6 * len(ks) + 5 * 64, info
