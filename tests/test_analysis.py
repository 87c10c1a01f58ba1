from fractions import Fraction
from itertools import islice

import pytest

from harmonic_knapsack.analysis import (
    FAMILIES,
    build_witness,
    mu_for,
    tinf_bracket,
    witness_counts,
)
from harmonic_knapsack.exactnum import to_decimal
from harmonic_knapsack.harmonic import HarmonicParams, classify, profit
from harmonic_knapsack.ip_model import cost, score, solve_brute
from harmonic_knapsack.solvers import greedy_solution, solve
from harmonic_knapsack.sylvester import sylvester_rows
from reference_values import LIMIT_15, TABLE_OPT

F = Fraction


def test_mu_for_examples():
    assert mu_for("lee", 4) == F(4, 3)
    assert mu_for("caprara", 5) == F(5, 3)
    assert mu_for("refined", 10) == F(80, 71)


def test_mu_for_range_checks():
    with pytest.raises(ValueError):
        mu_for("lee", 1)
    with pytest.raises(ValueError):
        mu_for("caprara", 2)
    with pytest.raises(ValueError):
        mu_for("refined", 2)
    with pytest.raises(ValueError):
        mu_for("nope", 5)


def test_family_slopes_stay_in_domain():
    for name, (min_k, _) in FAMILIES.items():
        for k in range(min_k, 40):
            mu = mu_for(name, k)
            assert 0 < mu <= k, (name, k)


def test_witness_example_instance():
    params = HarmonicParams(4, F(4, 3))
    inst = build_witness(params, (1, 1, 0), F(1, 100))
    assert inst.items == (F(101, 200), F(101, 300), F(19, 120))
    assert inst.total() == 1
    assert profit(params, inst) > F(31, 18) - F(4, 3) * F(1, 100)


def test_witness_zero_vector_gives_uniform_instance():
    params = HarmonicParams(3, F(3, 2))
    inst = build_witness(params, (0, 0), F(1, 2))
    assert inst.items == (F(1, 3),) * 3
    assert profit(params, inst) == F(3, 2)


def test_witness_items_stay_in_their_classes():
    for name, (min_k, _) in FAMILIES.items():
        for k in range(max(2, min_k), 11):
            params = HarmonicParams(k, mu_for(name, k))
            counts, eps = witness_counts(params, F(1, 100))
            inst = build_witness(params, counts, eps)
            assert inst.total() == 1
            remaining = list(inst.items)
            for j, c in enumerate(counts, start=1):
                for _ in range(c):
                    item = F(1 + eps, j + 1)
                    assert classify(params, item) == j
                    remaining.remove(item)
            for item in remaining:  # fillers all land in the smallest class
                assert classify(params, item) == k


def test_witness_profit_identity():
    # profit == score - mu * eps * cost, exactly
    for k, mu in [(4, F(4, 3)), (7, F(7, 6)), (10, F(80, 71)), (5, F(5, 3))]:
        params = HarmonicParams(k, mu)
        for eps in [F(1, 10), F(1, 100), F(1, 1000)]:
            counts, eps = witness_counts(params, eps)
            inst = build_witness(params, counts, eps)
            s = cost(counts, params)
            assert profit(params, inst) == score(counts, params) - mu * eps * s


def test_witness_profit_never_exceeds_optimum():
    for k in range(2, 9):
        params = HarmonicParams(k, F(k, k - 1))
        inst = build_witness(params, *witness_counts(params, F(1, 1000)))
        assert profit(params, inst) <= solve_brute(params).opt


def test_witness_counts_choice_and_clamp():
    # greedy below mu = 2, eps clamped to 1/cost - 1 = 1/41 at cost 41/42
    params = HarmonicParams(10, F(10, 9))
    assert witness_counts(params, F(1, 10)) == (greedy_solution(params)[0], F(1, 41))
    assert witness_counts(params, F(1, 100)) == (greedy_solution(params)[0], F(1, 100))
    # below mu = 1 greedy is only a heuristic, but it is still the source
    params = HarmonicParams(5, F(1, 2))
    assert witness_counts(params, F(1, 1000))[0] == greedy_solution(params)[0]
    # no classes at k = 1 and non-positive coefficients at mu >= 2: zeros, no clamp
    assert witness_counts(HarmonicParams(1, F(1)), F(5)) == ((), F(5))
    assert witness_counts(HarmonicParams(4, F(5, 2)), F(1, 2)) == ((0, 0, 0), F(1, 2))


def test_witness_validation():
    params = HarmonicParams(3, F(3, 2))
    with pytest.raises(ValueError):
        build_witness(params, (1, 2), F(1, 100))  # infeasible counts
    with pytest.raises(ValueError):
        build_witness(params, (1, 0), F(0))  # eps must be positive
    with pytest.raises(ValueError):
        build_witness(params, (1, 0), F(3, 2))  # above 1/cost - 1 = 1
    with pytest.raises(ValueError, match="class"):
        build_witness(params, (0, 1), F(1))  # (1+1)/3 jumps to class 1


def sweep(family, k_min, k_max):
    """Optimum per k in [k_min, k_max] under one family."""
    return [solve(HarmonicParams(k, mu_for(family, k))).opt for k in range(k_min, k_max + 1)]


def non_increasing(opts):
    return all(a >= b for a, b in zip(opts, opts[1:]))


def test_sweep_reference_rows():
    assert [mu_for("lee", k) for k in range(2, 6)] == [F(2), F(3, 2), F(4, 3), F(5, 4)]
    opts = sweep("lee", 2, 5)
    assert opts == [F(2), F(7, 4), F(31, 18), F(41, 24)]
    assert non_increasing(opts)
    assert sweep("caprara", 3, 6) == [F(3), F(2), F(11, 6), F(7, 4)]
    assert sweep("refined", 3, 4) == [F(3), F(9, 5)]


def test_sweep_matches_reference_table():
    for family, cells in TABLE_OPT.items():
        lo, hi = min(cells), max(cells)
        opts = sweep(family, lo, hi)
        assert dict(zip(range(lo, hi + 1), opts)) == cells
        assert non_increasing(opts)


def test_optimum_grows_with_slope_at_fixed_k():
    at = {name: solve(HarmonicParams(7, mu_for(name, 7))).opt for name in FAMILIES}
    assert at["lee"] == F(61, 36)
    assert at["caprara"] == F(26, 15)
    assert at["lee"] < at["refined"] < at["caprara"]


def test_bracket_examples():
    br = tinf_bracket(10)
    assert to_decimal(br.lower, 15) == LIMIT_15
    assert to_decimal(br.upper, 15) == LIMIT_15
    assert br.width < F(1, 10**75)
    br = tinf_bracket(2)
    assert (br.lower, br.upper) == (F(3, 2), F(7, 4))


def test_bracket_width_formula():
    rows = list(islice(sylvester_rows(), 12))
    for t in range(2, 13):
        (r_prev, _), (r_t, s_t) = rows[t - 2], rows[t - 1]
        br = tinf_bracket(t)
        assert br.lower == s_t
        assert br.width == F(1, r_t * (r_prev + 1))
        assert br.lower <= br.upper


def test_bracket_range_check():
    with pytest.raises(ValueError):
        tinf_bracket(1)
    with pytest.raises(ValueError):
        tinf_bracket(13)
