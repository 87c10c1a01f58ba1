from fractions import Fraction
from itertools import islice

import pytest

from harmonic_knapsack.analysis import (
    FAMILIES,
    build_witness,
    mu_for,
    tinf_bracket,
)
from harmonic_knapsack.exactnum import to_decimal
from harmonic_knapsack.harmonic import HarmonicParams, classify
from harmonic_knapsack.ip_model import solve_brute
from harmonic_knapsack.solvers import greedy_solution, solve, solve_closed_form, sylvester_rows
from helpers import clamped_eps, cost, profit, score
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
    sizes = build_witness(params, F(1, 100))
    assert sizes == (F(101, 200), F(101, 300), F(19, 120))
    assert sum(sizes) == 1
    assert profit(params, sizes) > F(31, 18) - F(4, 3) * F(1, 100)


def test_witness_zero_vector_gives_uniform_instance():
    params = HarmonicParams(3, F(2))  # mu >= 2: the greedy vector is all zeros
    sizes = build_witness(params, F(1, 2))
    assert sizes == (F(1, 3),) * 3
    assert profit(params, sizes) == F(2)


def witness_grid():
    """(params, eps) for k = 1..30, 44, 100, mu = a/b in [0, min(k, 3)] with b <= 6.

    Besides fixed eps from 1/10^4299 to 5, each (k, mu) with a positive
    greedy cost s gets the clamp value 1/s - 1 and that value +- 10^-60, as
    the greedy-vector oracle computes it.
    """
    tiny = F(1, 10**60)
    for k in [*range(1, 31), 44, 100]:
        mus = {F(a, b) for b in range(1, 7) for a in range(min(k, 3) * b + 1)}
        for mu in sorted(mus):
            params = HarmonicParams(k, mu)
            edge = clamped_eps(params, F(5))  # every clamp value is at most 1
            edges = [edge - tiny, edge, edge + tiny] if edge < 5 else []
            for eps in [F(1, 10**4299), F(1, 1000), F(1, 10), F(1), F(5), *edges]:
                yield params, eps


def test_witness_items_stay_in_their_classes():
    for params, eps in witness_grid():
        sizes = build_witness(params, eps)
        eps = clamped_eps(params, eps)
        assert sum(sizes) == 1, (params, eps)
        counts = greedy_solution(params).counts
        classes = [j for j, c in enumerate(counts, start=1) if c]
        head, fillers = sizes[: len(classes)], sizes[len(classes) :]
        assert head == tuple(F(1 + eps, j + 1) for j in classes), (params, eps)
        assert [classify(params, x) for x in head] == classes, (params, eps)
        # fillers all land in the smallest class
        assert all(classify(params, x) == params.k for x in fillers), (params, eps)


def test_witness_profit_identity():
    # profit == score - mu * eps * cost, exactly, with eps as clamped
    for params, eps in witness_grid():
        sizes = build_witness(params, eps)
        eps = clamped_eps(params, eps)
        counts = greedy_solution(params).counts
        s = cost(counts, params)
        assert profit(params, sizes) == score(counts, params) - params.mu * eps * s, (params, eps)


def test_witness_profit_never_exceeds_optimum():
    for k in range(2, 9):
        params = HarmonicParams(k, F(k, k - 1))
        sizes = build_witness(params, F(1, 1000))
        assert profit(params, sizes) <= solve_brute(params).opt


def test_witness_counts_choice_and_clamp():
    # greedy classes 1, 2, 6 below mu = 2; eps clamped to 1/cost - 1 = 1/41
    # at cost 41/42, where the three items fill the bin without a filler
    params = HarmonicParams(10, F(10, 9))
    assert greedy_solution(params).counts == (1, 1, 0, 0, 0, 1, 0, 0, 0)
    assert build_witness(params, F(1, 10)) == (F(21, 41), F(14, 41), F(6, 41))
    assert build_witness(params, F(1, 100))[:3] == (F(101, 200), F(101, 300), F(101, 700))
    # below mu = 1 greedy is only a heuristic, but it is still the source
    params = HarmonicParams(5, F(1, 2))
    assert build_witness(params, F(1, 1000)) == (F(1001, 2000), F(1001, 3000), F(199, 1200))
    # no classes at k = 1 and non-positive coefficients at mu >= 2: fillers only
    assert build_witness(HarmonicParams(1, F(1)), F(5)) == (F(1),)
    assert build_witness(HarmonicParams(4, F(5, 2)), F(1, 2)) == (F(1, 4),) * 4


def test_witness_validation():
    params = HarmonicParams(3, F(3, 2))
    for eps in (F(0), F(-1, 3)):
        with pytest.raises(ValueError, match="eps must be positive"):
            build_witness(params, eps)
    # the greedy vector (1, 0) costs 1/2: eps above 1/cost - 1 = 1 is clamped to 1
    assert build_witness(params, F(3, 2)) == (F(1),)
    # k is checked first, so a huge k is refused before eps is read
    with pytest.raises(ValueError, match="k is above 10000"):
        build_witness(HarmonicParams(10_001, F(1)), F(0))


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
    assert (br.t, br.lower, br.upper, br.width) == (2, F(3, 2), F(7, 4), F(1, 4))
    with pytest.raises(AttributeError):
        br.upper = F(0)


def test_bracket_width_formula():
    # the telescoped upper end is the lee-family closed-form optimum at
    # k = r_{t-1} + 2, for every t that tinf_bracket accepts
    rows = list(islice(sylvester_rows(), 12))
    for t in range(2, 13):
        (r_prev, _), (r_t, s_t) = rows[t - 2], rows[t - 1]
        br = tinf_bracket(t)
        assert br.lower == s_t
        assert br.width == F(1, r_t * (r_prev + 1))
        assert br.lower <= br.upper
        k = r_prev + 2
        assert br.upper == solve_closed_form(HarmonicParams(k, mu_for("lee", k))).opt, t


def test_bracket_range_check():
    with pytest.raises(ValueError):
        tinf_bracket(1)
    with pytest.raises(ValueError):
        tinf_bracket(13)
