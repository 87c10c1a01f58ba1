import math
from fractions import Fraction
from itertools import product

import pytest

from harmonic_knapsack.harmonic import HarmonicParams
from harmonic_knapsack.ip_model import cost, is_feasible, score, solve_brute

F = Fraction


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


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        score((1, 1), HarmonicParams(4, F(4, 3)))
    with pytest.raises(ValueError):
        cost((0,), HarmonicParams(3, F(1)))
    with pytest.raises(ValueError):
        score((-1, 0, 0), HarmonicParams(4, F(1)))


def test_is_feasible():
    assert is_feasible((1, 1, 0), HarmonicParams(4, F(4, 3)))
    assert not is_feasible((1, 2), HarmonicParams(3, F(3, 2)))
    assert is_feasible((), HarmonicParams(1, F(1)))


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
            assert rep.argmax == feasible[scores.index(max(scores))]


def test_count_within_factorial():
    for k in range(1, 9):
        n = solve_brute(HarmonicParams(k, F(1))).feasible_count
        assert n <= math.factorial(k)


def test_solve_brute_examples():
    rep = solve_brute(HarmonicParams(4, F(4, 3)))
    assert (rep.opt, rep.argmax) == (F(31, 18), (1, 1, 0))
    rep = solve_brute(HarmonicParams(2, F(2)))
    # zero coefficient at class 1 makes (0,) and (1,) tie; lexicographic wins
    assert (rep.opt, rep.argmax) == (F(2), (0,))
    rep = solve_brute(HarmonicParams(1, F(3, 4)))
    assert (rep.opt, rep.argmax) == (F(3, 4), ())


def test_solve_brute_matches_oracle():
    for k in range(1, 7):
        for mu in [F(0), F(1, 2), F(1), F(4, 3), F(2), F(5, 2)]:
            if mu > k:
                continue
            params = HarmonicParams(k, mu)
            assert solve_brute(params).opt == oracle_opt(params)


def test_report_is_consistent():
    params = HarmonicParams(6, F(6, 5))
    rep = solve_brute(params)
    assert is_feasible(rep.argmax, params)
    assert score(rep.argmax, params) == rep.opt
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
                assert is_feasible(trimmed, params)
                assert score(trimmed, params) >= score(z, params)


def test_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        solve_brute(HarmonicParams(15, F(3, 2)))
    with pytest.raises(ValueError, match="cap"):
        solve_brute(HarmonicParams(20, F(1)))
