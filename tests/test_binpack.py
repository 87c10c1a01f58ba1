import random
from collections import Counter
from fractions import Fraction

import pytest

from harmonic_knapsack.binpack import MAX_ITEMS, adversarial_instance, harmonic_pack
from harmonic_knapsack.harmonic import HarmonicParams, KnapsackInstance, classify
from harmonic_knapsack.solvers import solve_closed_form

F = Fraction


def random_instance(rng, n_items, denom=1200):
    return KnapsackInstance(tuple(F(rng.randint(1, denom), denom) for _ in range(n_items)))


def test_hand_simulated_three_classes():
    params = HarmonicParams(3, F(3, 2))
    inst = KnapsackInstance((F(3, 5), F(3, 5), F(3, 10), F(3, 10), F(3, 10)))
    res = harmonic_pack(params, inst)
    assert res.bins_used == 3
    assert res.per_class_bins == {1: 2, 3: 1}
    small = [b for b in res.bins if b.size_class == 3]
    assert len(small) == 1 and small[0].load() == F(9, 10)
    assert res.opt_lower_bound == 3  # ceil(21/10) = 3 beats the two big items
    assert res.ratio == 1


def test_empty_instance():
    res = harmonic_pack(HarmonicParams(2, F(2)), KnapsackInstance(()))
    assert res.bins_used == 0
    assert res.opt_lower_bound == 0
    assert res.ratio is None


def test_next_fit_exact_fill():
    # ten items of 1/5 in class 4: five fill a bin to exactly 1 before closing
    params = HarmonicParams(4, F(4, 3))
    res = harmonic_pack(params, KnapsackInstance((F(1, 5),) * 10))
    assert res.bins_used == 2
    assert res.per_class_bins == {4: 2}
    assert all(b.load() == 1 for b in res.bins)


def test_rejects_nonpositive_and_oversize():
    params = HarmonicParams(3, F(1))
    with pytest.raises(ValueError):
        harmonic_pack(params, KnapsackInstance((F(0),)))
    with pytest.raises(ValueError):
        harmonic_pack(params, KnapsackInstance((F(1), F(0, 2))))


def test_packing_is_valid_on_random_instances():
    rng = random.Random(1234)
    for k in (2, 5, 12):
        params = HarmonicParams(k, F(k, k - 1))
        for _ in range(10):
            inst = random_instance(rng, rng.randint(0, 120))
            res = harmonic_pack(params, inst)
            assert sum(len(b.items) for b in res.bins) == len(inst)
            assert Counter(x for b in res.bins for x in b.items) == Counter(inst.items)
            for b in res.bins:
                assert b.load() <= 1
                if b.size_class < k:
                    assert len(b.items) <= b.size_class
                for x in b.items:
                    assert classify(params, x) == b.size_class
            assert res.bins_used == sum(res.per_class_bins.values())
            assert res.bins_used >= res.opt_lower_bound


def test_deterministic():
    rng = random.Random(7)
    inst = random_instance(rng, 80)
    params = HarmonicParams(6, F(6, 5))
    assert harmonic_pack(params, inst) == harmonic_pack(params, inst)


def test_adversarial_single_bundle():
    params = HarmonicParams(4, F(4, 3))
    inst = adversarial_instance(params, 1, F(1, 100))
    assert inst.total() == 1
    classes = [classify(params, x) for x in inst]
    assert classes == sorted(classes, reverse=True)  # class-descending order


def test_adversarial_bundle_count_sets_lower_bound():
    params = HarmonicParams(4, F(4, 3))
    inst = adversarial_instance(params, 100, F(1, 100))
    assert inst.total() == 100
    res = harmonic_pack(params, inst)
    assert res.opt_lower_bound == 100


def test_adversarial_ratio_at_reference_point():
    # hand count for k=12, mu=12/11, n=1000, eps=1/1000: per bundle the greedy
    # classes 1, 2, 6 give 1000, 500 and 167 bins, and the 959/42000
    # remainders pack 43 per next-fit bin for 24 more
    params = HarmonicParams(12, F(12, 11))
    inst = adversarial_instance(params, 1000, F(1, 1000))
    res = harmonic_pack(params, inst)
    assert res.bins_used == 1691
    assert res.per_class_bins == {1: 1000, 2: 500, 6: 167, 12: 24}
    assert res.opt_lower_bound == 1000
    assert res.ratio == F(1691, 1000)


def test_bins_track_the_knapsack_optimum():
    for k, n in [(4, 200), (7, 200), (12, 500)]:
        params = HarmonicParams(k, F(k, k - 1))
        opt = solve_closed_form(params).opt
        res = harmonic_pack(params, adversarial_instance(params, n, F(1, 1000)))
        assert res.bins_used <= opt * n + k
        assert res.ratio >= opt * F(9, 10)


def test_adversarial_validation():
    with pytest.raises(ValueError):
        adversarial_instance(HarmonicParams(4, F(4, 3)), -1, F(1, 100))
    assert len(adversarial_instance(HarmonicParams(4, F(4, 3)), 0, F(1, 100))) == 0
    # the item bound is checked before the instance is built
    params = HarmonicParams(4, F(4, 3))
    n = MAX_ITEMS // len(adversarial_instance(params, 1, F(1, 100)))
    assert len(adversarial_instance(params, n, F(1, 100))) <= MAX_ITEMS
    for bundles in (n + 1, 10**30):
        with pytest.raises(ValueError, match=f"exceed {MAX_ITEMS} items"):
            adversarial_instance(params, bundles, F(1, 100))
