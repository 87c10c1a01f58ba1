"""Online size-classed bin packer and adversarial workloads for it.

Items arrive one at a time and are routed by size class. Every class-j bin
(j < k) takes exactly j items before a fresh one opens (class-j items
measure at most 1/j, so j of them always fit), so class j opens
ceil(n_j / j) bins for its n_j items, whatever their order: the packer only
counts them. Class-k items are packed next-fit: one open bin, closed the
first time an item does not fit, which is the one part that depends on the
arrival order. All arithmetic is exact.

The packer keeps counters only; bins and their contents are not kept. It
counts the items of each class j < k and the bins of class k, and keeps,
for the total size, numerator sums per denominator. The open class-k bin's
load is two integers, load/scale, where scale is a multiple of the lcm of
that bin's denominators, so each fit test is one integer compare and no
Fraction is built per item. Its memory is O(k + distinct denominators)
whatever the number of items.

adversarial_instance replays many copies of a witness bundle whose total
size is exactly 1, so the packer's bins-per-bundle ratio approaches the
knapsack optimum for the chosen (k, mu).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Optional

from .analysis import build_witness
from .harmonic import HarmonicParams, KnapsackInstance, classify

__all__ = ["MAX_ITEMS", "PackingResult", "harmonic_pack", "adversarial_instance"]

# Largest instance adversarial_instance builds. Building and packing this
# many items, shuffled, took at most 0.1 s for the lee, caprara and refined
# families at k = 3, 12, 100, 1,000 and 10,000, and 0.85 s with a
# 4,300-digit eps (best of 3, in-process, Python 3.11.7, shared 2-vCPU VM).
MAX_ITEMS = 100_000


class PackingResult(NamedTuple):
    bins_used: int
    per_class_bins: dict[int, int]
    opt_lower_bound: int
    ratio: Optional[Fraction]


def harmonic_pack(params: HarmonicParams, items: Iterable[Fraction]) -> PackingResult:
    """Pack items online by size class; deterministic in the arrival order.

    items may be any iterable of sizes, read once: Fractions, ints, or
    finite floats, which count at their exact binary value. Every size must
    lie in (0, 1], else ValueError. A size above 1 is caught after the last
    item is read, one at most 0 when it arrives.

    per_class_bins maps each class to its bins, listing the classes in the
    order they first open a bin. opt_lower_bound is max(ceil(total size),
    number of items above 1/2); both quantities are valid lower bounds on
    any packing. ratio is bins_used over that bound, or None for the empty
    instance.
    """
    k = params.k
    # class j < k -> its items, and class k -> its bins; keys in the order
    # the classes first open a bin
    counts: dict[int, int] = {}
    # the open class-k bin holds load/scale, where scale is a multiple of the
    # lcm of its items' denominators; 1/1 reads "full" until the first opens
    load = scale = 1
    numerators: dict[int, int] = {}  # denominator -> sum of numerators over it
    big_items = 0  # items above 1/2 in class k, which only k = 1 has
    for x in items:
        n, d = x.as_integer_ratio()
        numerators[d] = numerators.get(d, 0) + n
        if n * k <= d:  # class k, next-fit
            if n <= 0:
                raise ValueError("item size outside (0, 1]")
            if 2 * n > d:
                big_items += 1
            if d == scale:
                load += n
            else:
                # one gcd and no lcm: a big-by-small division costs as much
                # as the gcd, so coprime d (g == 1) only multiplies
                g = gcd(scale, d)
                if g == d:
                    load += n * (scale // d)
                elif g == 1:
                    load, scale = load * d + n * scale, scale * d
                else:
                    m = d // g
                    load, scale = load * m + n * (scale // g), scale * m
            if load > scale:
                counts[k] = counts.get(k, 0) + 1
                load, scale = n, d
            continue
        # x in (1/k, 1]: floor(1/x) is the class, as in harmonic.classify;
        # a size above 1 lands in class 0
        j = d // n
        counts[j] = counts.get(j, 0) + 1
    if 0 in counts:  # some size above 1
        raise ValueError("item size outside (0, 1]")
    per_class = {j: c if j == k else -(-c // j) for j, c in counts.items()}
    if k > 1:  # then the items above 1/2 are exactly class 1
        big_items = counts.get(1, 0)
    # exact total size, summed pairwise and unreduced: one running common
    # denominator would cost time quadratic in the distinct denominators
    terms = [(n, d) for d, n in numerators.items()] or [(0, 1)]
    while len(terms) > 1:
        odd = terms[-1:] if len(terms) % 2 else []
        terms = [(a * d + c * b, b * d) for (a, b), (c, d) in zip(terms[::2], terms[1::2])] + odd
    [(n, d)] = terms
    bins_used = sum(per_class.values())
    lower = max(-(-n // d), big_items)
    ratio = Fraction(bins_used, lower) if lower > 0 else None
    return PackingResult(bins_used, per_class, lower, ratio)


def adversarial_instance(params: HarmonicParams, n_bundles: int, eps) -> KnapsackInstance:
    """n_bundles copies of the witness bundle, classes descending.

    The bundle is build_witness(params, eps), so eps is clamped the same way.
    Each bundle sums to exactly 1, so the true packing optimum is at most
    n_bundles. Within a bundle the smallest items (class k) come first; the
    fixed order keeps runs reproducible. More than MAX_ITEMS items in all
    is refused before the instance is built.
    """
    if n_bundles < 0:
        raise ValueError("n_bundles must be >= 0")
    bundle = build_witness(params, eps)
    most = MAX_ITEMS // len(bundle)
    if n_bundles > most:
        raise ValueError(f"n_bundles must be <= {most}; more would exceed {MAX_ITEMS} items")
    ordered = sorted(bundle, key=lambda x: classify(params, x), reverse=True)
    return KnapsackInstance(tuple(ordered) * n_bundles)
