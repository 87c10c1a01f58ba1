"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they pass.
Every comparison is exact (structural equality of fractions) unless the
criterion itself states an inequality; timing budgets are asserted where the
criterion sets one.
"""

import math
import random
import time
from fractions import Fraction
from itertools import islice

from harmonic_knapsack.analysis import FAMILIES, build_witness, mu_for, tinf_bracket
from harmonic_knapsack.binpack import adversarial_instance, harmonic_pack
from harmonic_knapsack.exactnum import to_decimal
from harmonic_knapsack.harmonic import HarmonicParams, eval_fk
from harmonic_knapsack.ip_model import solve_brute
from harmonic_knapsack.solvers import greedy_solution, solve, solve_closed_form, sylvester_rows
from helpers import clamped_eps, profit
from reference_values import (
    FAMILY_RANGE,
    LIMIT_15,
    SEQUENCE_FIRST_SEVEN,
    TABLE_DECIMALS,
    TABLE_OPT,
)

F = Fraction


def report(n, ok, detail):
    line = f"criterion {n}: {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_criterion_1_reference_table_exact():
    start = time.perf_counter()
    cells = 0
    ok = True
    for family, expected in TABLE_OPT.items():
        for k, value in expected.items():
            outcome = solve(HarmonicParams(k, mu_for(family, k)), method="auto")
            ok = ok and outcome.opt == value
            if k in TABLE_DECIMALS[family]:
                ok = ok and to_decimal(outcome.opt, 8) == TABLE_DECIMALS[family][k]
            cells += 1
    elapsed = time.perf_counter() - start
    ok = ok and cells == 31 and elapsed < 5.0
    report(1, ok, f"reference table reproduced exactly ({cells} cells, {elapsed:.2f}s)")


def test_criterion_2_sequence_row_exact():
    got = [r for r, _ in islice(sylvester_rows(), 7)]
    report(2, got == SEQUENCE_FIRST_SEVEN, f"first seven sequence terms exact: {got}")


def test_criterion_3_three_solvers_agree():
    start = time.perf_counter()
    grid = sorted({F(a, b) for b in range(1, 13) for a in range(b, 2 * b)})
    points = 0
    ok = True
    for k in range(2, 13):
        for mu in grid:
            params = HarmonicParams(k, mu)
            brute = solve_brute(params).opt
            closed = solve_closed_form(params).opt
            greedy = greedy_solution(params)[1]
            ok = ok and brute == closed == greedy
            points += 1
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(3, ok, f"brute = closed form = greedy on {points} grid points ({elapsed:.2f}s)")


def test_criterion_4_limit_bracket():
    start = time.perf_counter()
    bracket = tinf_bracket(10)
    decimals = (to_decimal(bracket.lower, 15), to_decimal(bracket.upper, 15))
    elapsed = time.perf_counter() - start
    ok = (
        decimals == (LIMIT_15, LIMIT_15)
        and bracket.width < F(1, 10**75)
        and elapsed < 1.0
    )
    report(4, ok, f"limit bracketed to 15 places, width < 1e-75 ({elapsed:.3f}s)")


def test_criterion_5_family_monotonicity_to_50():
    start = time.perf_counter()
    ok = True
    for family in FAMILIES:
        lo, _ = FAMILIES[family]
        values = [
            solve(HarmonicParams(k, mu_for(family, k)), method="auto").opt
            for k in range(lo, 51)
        ]
        ok = ok and all(a >= b for a, b in zip(values, values[1:]))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    report(5, ok, f"optimum non-increasing in k up to 50 for all families ({elapsed:.2f}s)")


def test_criterion_6_witness_properties():
    checked = 0
    ok = True
    for family in FAMILIES:
        lo, _ = FAMILY_RANGE[family]
        for k in range(max(2, lo), 11):
            params = HarmonicParams(k, mu_for(family, k))
            opt = solve(params, method="auto").opt
            for eps in [F(1, 10), F(1, 100), F(1, 1000)]:
                witness = build_witness(params, eps)
                eps = clamped_eps(params, eps)
                value = profit(params, witness)
                ok = ok and sum(witness) == 1
                ok = ok and value > opt - params.mu * eps
                ok = ok and value <= opt
                checked += 1
    report(6, ok, f"witness sums to 1 and pins the optimum within mu*eps ({checked} witnesses)")


def test_criterion_7_enumeration_bound():
    ok = True
    for k in range(1, 9):
        n = solve_brute(HarmonicParams(k, F(1))).feasible_count
        ok = ok and n <= math.factorial(k)
        if k == 3:
            ok = ok and n == 5
    report(7, ok, "feasible solutions within k! for k <= 8, exactly 5 at k = 3")


def test_criterion_8_payoff_ratio_bound():
    rng = random.Random(18061806)
    ok = True
    samples = 0
    for k in (1, 2, 3, 4, 6, 12):
        for mu in (F(0), F(1, 2), F(1), F(3, 2), F(2)):
            if mu > k:
                continue
            params = HarmonicParams(k, mu)
            bound = max(mu, F(2))
            xs = [F(rng.randint(1, 10**6), 10**6) for _ in range(10**4)]
            xs += [F(1, j) for j in range(1, k + 1)]
            for x in xs:
                if eval_fk(params, x) > bound * x:
                    ok = False
            samples += len(xs)
    report(8, ok, f"payoff <= max(mu, 2) * size on {samples} sampled sizes incl. boundaries")


def test_criterion_9_simulator_guarantee():
    start = time.perf_counter()
    params = HarmonicParams(12, F(12, 11))
    bound = solve_closed_form(params).opt  # 391/231
    n = 1000
    result = harmonic_pack(params, adversarial_instance(params, n, F(1, 1000)))
    ok = result.bins_used <= bound * n + params.k
    ok = ok and result.ratio >= F(95, 100) * F(391, 231)
    for seed in range(100):
        rng = random.Random(seed)
        items = tuple(F(rng.randint(1, 1200), 1200) for _ in range(rng.randint(1, 300)))
        res = harmonic_pack(params, items)
        total = sum(items, F(0))
        ok = ok and res.bins_used <= bound * math.ceil(total) + params.k
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 30.0
    report(9, ok, f"packer stays within the optimum-scaled bin budget ({elapsed:.2f}s)")
