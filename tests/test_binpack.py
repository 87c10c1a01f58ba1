import math
import random
import re
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import cycle, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonic_knapsack.binpack import MAX_ITEMS, adversarial_instance, harmonic_pack
from harmonic_knapsack.harmonic import HarmonicParams, classify
from harmonic_knapsack.solvers import solve_closed_form

F = Fraction


def random_instance(rng, n_items, denom=1200):
    return tuple(F(rng.randint(1, denom), denom) for _ in range(n_items))


def reference_bins(params, items):
    """The packing rule on Fractions, keeping every bin as [class, items]."""
    k = params.k
    bins = []
    open_bin = {}  # class -> its unfilled bin
    for x in items:
        j = classify(params, x)
        b = open_bin.get(j)
        if b is None or (j == k and sum(b[1]) + x > 1):
            b = open_bin[j] = [j, []]
            bins.append(b)
        b[1].append(x)
        if j < k and len(b[1]) == j:
            del open_bin[j]
    return bins


def check_against_reference(params, items):
    """Assert the reference bins are a valid packing and harmonic_pack reports them."""
    bins = reference_bins(params, items)
    assert Counter(x for _, content in bins for x in content) == Counter(items)
    for j, content in bins:
        assert sum(content) <= 1
        assert all(classify(params, x) == j for x in content)
        if j < params.k:
            assert len(content) <= j
    lower = max(math.ceil(sum(items, F(0))), sum(1 for x in items if x > F(1, 2)))
    res = harmonic_pack(params, items)
    assert res.bins_used == len(bins)
    assert res.per_class_bins == Counter(j for j, _ in bins)
    # classes are listed in the order they first open a bin
    assert list(res.per_class_bins) == list(dict.fromkeys(j for j, _ in bins))
    assert res.opt_lower_bound == lower
    assert res.ratio == (F(len(bins), lower) if lower else None)
    return bins, res


def test_hand_simulated_three_classes():
    params = HarmonicParams(3, F(3, 2))
    items = (F(3, 5), F(3, 5), F(3, 10), F(3, 10), F(3, 10))
    bins, res = check_against_reference(params, items)
    assert res.bins_used == 3
    assert res.per_class_bins == {1: 2, 3: 1}
    assert [sum(content) for j, content in bins if j == 3] == [F(9, 10)]
    assert res.opt_lower_bound == 3  # ceil(21/10) = 3 beats the two big items
    assert res.ratio == 1


def test_items_above_half_at_k1():
    # at k = 1 every size is class k, so its next-fit side counts the items
    # above 1/2; three of them beat ceil(total) = 2
    _, res = check_against_reference(HarmonicParams(1, F(1)), (F(3, 5),) * 3 + (F(1, 5),))
    assert res.opt_lower_bound == 3
    assert res.bins_used == 3


def test_empty_instance():
    res = harmonic_pack(HarmonicParams(2, F(2)), ())
    assert res.bins_used == 0
    assert res.opt_lower_bound == 0
    assert res.ratio is None


def test_next_fit_exact_fill():
    # ten items of 1/5 in class 4: five fill a bin to exactly 1 before closing
    params = HarmonicParams(4, F(4, 3))
    bins, res = check_against_reference(params, (F(1, 5),) * 10)
    assert res.bins_used == 2
    assert res.per_class_bins == {4: 2}
    assert all(sum(content) == 1 for _, content in bins)


@pytest.mark.parametrize(
    "sizes",
    [
        # equal denominators
        (F(1, 9), F(2, 9), F(2, 9), F(2, 9), F(2, 9)) + (F(1, 9),) * 9,
        # each denominator divides the bin's scale of 12
        (F(1, 12), F(1, 6), F(1, 4), F(1, 3), F(1, 12), F(1, 4)),
        # coprime denominators: 1/p over distinct primes, the ninth opens a bin
        tuple(F(1, p) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
        # partial gcds: 6 and 10 share 2, 30 and 45 share 15
        (F(1, 6), F(1, 10), F(1, 15), F(2, 45)) + (F(1, 6), F(1, 10), F(1, 15)) * 2,
        # filled to exactly 1, a bin stays open until the next item
        (F(1, 4), F(1, 3), F(1, 4), F(1, 6)) + (F(1, 5),) * 5,
        # classes 1 and 2 between class-k items leave the next-fit load alone
        (F(1, 5), F(3, 5), F(1, 7), F(2, 5), F(1, 3), F(1, 3), F(1, 2), F(1, 35)),
    ],
)
def test_next_fit_load_matches_reference(sizes):
    _, res = check_against_reference(HarmonicParams(3, F(1)), sizes)
    assert res.per_class_bins[3] >= 2


@st.composite
def class_k_heavy_case(draw):
    """k <= 6 and sizes n/d <= 1/k over denominators that share some prime factors."""
    k = draw(st.integers(2, 6))
    denominators = st.sampled_from([6, 7, 9, 10, 12, 14, 15, 30, 35, 60, 77, 210])
    small = denominators.flatmap(lambda d: st.integers(1, d // k).map(lambda n: F(n, d)))
    sizes = draw(st.lists(st.one_of(small, st.sampled_from([F(1, 2), F(2, 3), F(1)])), max_size=60))
    return HarmonicParams(k, F(1)), tuple(sizes)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(class_k_heavy_case())
def test_class_k_heavy_inputs_match_reference(case):
    # the next-fit load's four gcd branches and the exact-fill boundary, drawn
    # far more often than packing_case's spread of denominators reaches them
    check_against_reference(*case)


def test_rejects_nonpositive_and_oversize():
    params = HarmonicParams(3, F(1))
    valid = [F(3, 5), F(2, 5), F(1, 4), F(1, 7)]  # classes 1, 2 and 3
    # 0 and -1/3 take the class-k side of the loop, 3/2 the class-j side
    for bad in (F(0), F(-1, 3), F(3, 2)):
        for items in ([bad], [bad] + valid, valid[:2] + [bad] + valid[2:], valid + [bad], valid * 250 + [bad]):
            for source in (tuple(items), (x for x in items)):
                with pytest.raises(ValueError, match=re.escape("item size outside (0, 1]")):
                    harmonic_pack(params, source)
    for items in ((F(1), F(0, 2)), (0,), (1.5,), (-0.25, 0.5)):
        with pytest.raises(ValueError, match=re.escape("item size outside (0, 1]")):
            harmonic_pack(params, items)


def test_int_and_float_sizes_pack_at_their_exact_value():
    for k in (1, 2, 3, 12):
        params = HarmonicParams(k, F(1))
        assert harmonic_pack(params, [1, 1, F(1, 2)]) == harmonic_pack(params, [F(1), F(1), F(1, 2)])
        floats = [0.1, 0.5, 0.3, 1.0, 0.05, 0.7, 0.25]
        assert harmonic_pack(params, floats) == harmonic_pack(params, [F(x) for x in floats])
    # 0.1 is 3602879701896397/2**55, a little above 1/10: ten of them
    # overflow one next-fit bin, which ten sizes 1/10 fill exactly
    assert F(0.1) > F(1, 10)
    assert harmonic_pack(HarmonicParams(3, F(1)), [0.1] * 10).bins_used == 2


def test_packing_is_valid_on_random_instances():
    rng = random.Random(1234)
    for k in (2, 5, 12):
        params = HarmonicParams(k, F(k, k - 1))
        for _ in range(10):
            inst = random_instance(rng, rng.randint(0, 120))
            _, res = check_against_reference(params, inst)
            assert res.bins_used == sum(res.per_class_bins.values())
            assert res.bins_used >= res.opt_lower_bound


@st.composite
def packing_case(draw):
    """k and sizes mixing random fractions with the class boundaries 1/j, 1/2 and 1."""
    k = draw(st.integers(1, 13))
    boundaries = [F(1, j) for j in range(1, k + 2)] + [F(1, 2), F(1)]
    fraction = st.integers(1, 1000).flatmap(lambda den: st.integers(1, den).map(lambda num: F(num, den)))
    sizes = draw(st.lists(st.one_of(st.sampled_from(boundaries), fraction), max_size=60))
    return HarmonicParams(k, F(1)), tuple(sizes)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(packing_case())
def test_packer_matches_reference(case):
    check_against_reference(*case)


def test_classify_agrees_with_packer_at_class_boundaries():
    tiny = F(1, 10**9)
    for k in (1, 2, 3, 12, 44):
        params = HarmonicParams(k, F(1))
        for j in range(1, k + 2):
            for x in (F(1, j) - tiny, F(1, j), F(1, j) + tiny):
                if 0 < x <= 1:
                    assert harmonic_pack(params, [x]).per_class_bins == {classify(params, x): 1}


def test_memory_does_not_grow_with_item_count():
    # a generator of cycled sizes over classes 1, 2, 3 and k = 4: the packer
    # keeps counters, so 100,000 items peak no higher than 10,000
    params = HarmonicParams(4, F(4, 3))
    sizes = (F(3, 5), F(2, 5), F(1, 3), F(1, 5), F(1, 7))

    def peak(n):
        tracemalloc.start()
        try:
            harmonic_pack(params, islice(cycle(sizes), n))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(100_000) <= peak(10_000) + 2048


def test_total_size_is_fast_with_many_distinct_denominators():
    # 20,000 sizes 1/d with consecutive d: a running lcm of the denominators
    # costs time quadratic in their number, a pairwise sum does not
    d0 = 10**6
    params = HarmonicParams(2 * d0, F(1))
    items = [F(1, d) for d in range(d0, d0 + 20_000)]
    start = time.perf_counter()
    res = harmonic_pack(params, items)
    assert time.perf_counter() - start < 1.0
    assert res.opt_lower_bound == 1  # the sizes add up to just under 1/50


def test_deterministic():
    rng = random.Random(7)
    inst = random_instance(rng, 80)
    params = HarmonicParams(6, F(6, 5))
    assert harmonic_pack(params, inst) == harmonic_pack(params, inst)


def test_adversarial_single_bundle():
    params = HarmonicParams(4, F(4, 3))
    inst = adversarial_instance(params, 1, F(1, 100))
    assert sum(inst) == 1
    classes = [classify(params, x) for x in inst]
    assert classes == sorted(classes, reverse=True)  # class-descending order


def test_adversarial_bundle_count_sets_lower_bound():
    params = HarmonicParams(4, F(4, 3))
    inst = adversarial_instance(params, 100, F(1, 100))
    assert sum(inst) == 100
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
