import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonic_knapsack.harmonic import HarmonicParams, KnapsackInstance, classify, eval_fk, profit

F = Fraction


def in_class(params, j, x):
    """Membership predicate of class j, straight from the interval definition."""
    if j == params.k:
        return 0 <= x <= F(1, params.k)
    return F(1, j + 1) < x <= F(1, j)


def test_params_validation():
    HarmonicParams(1, F(1))
    with pytest.raises(ValueError):
        HarmonicParams(0, F(0))
    with pytest.raises(ValueError):
        HarmonicParams(3, F(-1, 2))
    with pytest.raises(ValueError):
        HarmonicParams(3, F(7, 2))  # above k


def test_classify_examples():
    p = HarmonicParams(4, F(4, 3))
    assert classify(p, F(2, 7)) == 3
    assert classify(p, F(1, 4)) == 4  # smallest class is closed on the right
    assert classify(p, F(1)) == 1


def test_classify_boundaries():
    p = HarmonicParams(6, F(1))
    for j in range(1, 6):
        assert classify(p, F(1, j)) == j  # right boundary belongs to its class
    assert classify(p, F(1, 6)) == 6
    assert classify(p, F(0)) == 6


def test_classify_rejects_out_of_range():
    p = HarmonicParams(3, F(1))
    with pytest.raises(ValueError):
        classify(p, F(3, 2))
    with pytest.raises(ValueError):
        classify(p, F(-1, 10))


def test_eval_examples():
    assert eval_fk(HarmonicParams(4, F(4, 3)), F(2, 7)) == F(1, 3)
    assert eval_fk(HarmonicParams(4, F(4, 3)), F(1, 4)) == F(1, 3)  # mu * 1/4
    assert eval_fk(HarmonicParams(5, F(5, 4)), F(0)) == 0


def test_k1_is_all_linear():
    p = HarmonicParams(1, F(3, 4))
    for x in [F(0), F(1, 3), F(1)]:
        assert classify(p, x) == 1
        assert eval_fk(p, x) == F(3, 4) * x


def test_profit_examples():
    assert profit(HarmonicParams(2, F(1)), KnapsackInstance(())) == 0
    eps = F(1, 100)
    inst = KnapsackInstance(((1 + eps) / 2, (1 + eps) / 3))
    assert profit(HarmonicParams(4, F(4, 3)), inst) == F(3, 2)
    thirds = KnapsackInstance((F(1, 3),) * 3)
    assert profit(HarmonicParams(3, F(3, 2)), thirds) == F(3, 2)


def test_all_one_over_k_instance():
    for k in range(1, 13):
        p = HarmonicParams(k, F(k, k + 1))
        inst = KnapsackInstance((F(1, k),) * k)
        assert inst.total() == 1
        assert profit(p, inst) == p.mu


def test_partition_on_samples():
    rng = random.Random(20260810)
    for k in range(1, 13):
        p = HarmonicParams(k, F(1, 2))
        xs = [F(rng.randint(0, 10**6), 10**6) for _ in range(2000)]
        xs += [F(1, j) for j in range(1, k + 1)] + [F(0), F(1)]
        for x in xs:
            j = classify(p, x)
            matches = [i for i in range(1, k + 1) if in_class(p, i, x)]
            assert matches == [j]


def test_ratio_bound_on_samples():
    # payoff never exceeds max(mu, 2) * x for positive x
    rng = random.Random(97)
    for k, mu in [(1, F(1)), (3, F(3, 2)), (4, F(4, 3)), (6, F(5)), (12, F(1, 10))]:
        p = HarmonicParams(k, min(mu, F(k)))
        bound = max(p.mu, F(2))
        xs = [F(rng.randint(1, 9999), 9999) for _ in range(2000)]
        xs += [F(1, j) for j in range(1, k + 1)]
        for x in xs:
            assert eval_fk(p, x) <= bound * x


@given(
    st.integers(min_value=1, max_value=12),
    st.fractions(min_value=0, max_value=1, max_denominator=500),
    st.fractions(min_value=0, max_value=1, max_denominator=500),
)
def test_monotone_for_small_slopes(k, x, y):
    # monotone in x whenever mu <= k/(k-1); larger slopes break it at 1/k
    mu = F(k, k - 1) if k > 1 else F(1)
    p = HarmonicParams(k, mu)
    lo, hi = sorted((x, y))
    assert eval_fk(p, lo) <= eval_fk(p, hi)


def test_instance_validation_and_json():
    with pytest.raises(ValueError):
        KnapsackInstance((F(3, 2),))
    inst = KnapsackInstance((F(1, 2), F(1, 3), F(1)))
    text = inst.to_json()
    assert KnapsackInstance.from_json(text) == inst
    assert text == '["1/2", "1/3", "1"]'
    with pytest.raises(ValueError):
        KnapsackInstance.from_json("{}")
    with pytest.raises(ValueError, match="more than 4300 digits"):
        KnapsackInstance.from_json('["1e-300000"]')
