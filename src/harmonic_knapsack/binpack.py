"""Online size-classed bin packer and adversarial workloads for it.

Items arrive one at a time and are routed by size class. An item of class
j < k goes into the single open class-j bin, which accepts exactly j items
before a fresh bin is opened (class-j items measure at most 1/j, so j of
them always fit). Class-k items are packed next-fit: one open bin, closed
the first time an item does not fit. All arithmetic is exact.

adversarial_instance replays many copies of a witness bundle whose total
size is exactly 1, so the packer's bins-per-bundle ratio approaches the
knapsack optimum for the chosen (k, mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .analysis import build_witness, witness_counts
from .harmonic import HarmonicParams, KnapsackInstance, classify

__all__ = ["MAX_ITEMS", "PackedBin", "PackingResult", "harmonic_pack", "adversarial_instance"]

# Largest instance adversarial_instance builds: building and packing this
# many items takes a few seconds at most.
MAX_ITEMS = 100_000


@dataclass(frozen=True)
class PackedBin:
    """One bin: the class it serves and its items in packing order."""

    size_class: int
    items: tuple[Fraction, ...]

    def load(self) -> Fraction:
        return sum(self.items, Fraction(0))


@dataclass(frozen=True)
class PackingResult:
    bins_used: int
    per_class_bins: dict[int, int]
    opt_lower_bound: int
    ratio: Optional[Fraction]
    bins: tuple[PackedBin, ...]


def harmonic_pack(params: HarmonicParams, items: KnapsackInstance) -> PackingResult:
    """Pack items online by size class; deterministic in the arrival order.

    opt_lower_bound is max(ceil(total size), number of items above 1/2);
    both quantities are valid lower bounds on any packing. ratio is
    bins_used over that bound, or None for the empty instance.
    """
    k = params.k
    bins: list[tuple[int, list[Fraction]]] = []
    open_slot: dict[int, int] = {}  # class j < k -> index of its unfilled bin
    small_slot: Optional[int] = None
    small_load = Fraction(0)
    total = Fraction(0)
    half = Fraction(1, 2)
    big_items = 0
    for x in items:
        if not 0 < x <= 1:
            raise ValueError(f"item size {x} outside (0, 1]")
        total += x
        if x > half:
            big_items += 1
        j = classify(params, x)
        if j == k:
            if small_slot is None or small_load + x > 1:
                bins.append((k, []))
                small_slot = len(bins) - 1
                small_load = Fraction(0)
            bins[small_slot][1].append(x)
            small_load += x
        else:
            slot = open_slot.get(j)
            if slot is None:
                bins.append((j, []))
                slot = len(bins) - 1
                open_slot[j] = slot
            bins[slot][1].append(x)
            if len(bins[slot][1]) == j:
                del open_slot[j]
    per_class: dict[int, int] = {}
    for cls, _ in bins:
        per_class[cls] = per_class.get(cls, 0) + 1
    lower = max(math.ceil(total), big_items)
    ratio = Fraction(len(bins), lower) if lower > 0 else None
    return PackingResult(
        bins_used=len(bins),
        per_class_bins=per_class,
        opt_lower_bound=lower,
        ratio=ratio,
        bins=tuple(PackedBin(cls, tuple(content)) for cls, content in bins),
    )


def adversarial_instance(params: HarmonicParams, n_bundles: int, eps) -> KnapsackInstance:
    """n_bundles copies of the witness bundle, classes descending.

    The bundle comes from witness_counts, so eps is clamped the same way.
    Each bundle sums to exactly 1, so the true packing optimum is at most
    n_bundles. Within a bundle the smallest items (class k) come first; the
    fixed order keeps runs reproducible. More than MAX_ITEMS items in all
    is refused before the instance is built.
    """
    if n_bundles < 0:
        raise ValueError(f"n_bundles must be >= 0, got {n_bundles}")
    counts, eps = witness_counts(params, eps)
    bundle = build_witness(params, counts, eps)
    if n_bundles * len(bundle) > MAX_ITEMS:
        raise ValueError(f"{n_bundles} bundles of {len(bundle)} items exceed {MAX_ITEMS} items")
    ordered = sorted(bundle.items, key=lambda x: classify(params, x), reverse=True)
    return KnapsackInstance(tuple(ordered) * n_bundles)
