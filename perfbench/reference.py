"""Independent reference checks the benchmark applies to the program's outputs.

Nothing here imports the package. The packer works on integer sizes over a
common denominator, so it shares no arithmetic with the program's Fraction
code, and the knapsack check recomputes cost and score from the definitions.
"""

from __future__ import annotations

import math
from fractions import Fraction


def to_units(sizes) -> tuple[list[int], int]:
    """Integer numerators of `sizes` over the lcm L of their denominators."""
    distinct = set(sizes)
    scale = math.lcm(*(x.denominator for x in distinct)) if distinct else 1
    unit = {x: x.numerator * (scale // x.denominator) for x in distinct}
    return [unit[x] for x in sizes], scale


def reference_pack(k: int, units: list[int], scale: int) -> dict:
    """Online packing of sizes u/scale, routed by size class.

    Class j < k holds sizes in (1/(j+1), 1/j], so j = floor(scale / u); one
    open bin per class takes j items. Class k (u*k <= scale) is next-fit.
    Returns the fields PackingResult reports plus the exact total size.
    """
    bins = 0
    per_class: dict[int, int] = {}
    filled: dict[int, int] = {}  # class j < k -> items in its open bin
    small_load = None  # load of the open class-k bin, None when there is none
    total = 0
    big = 0
    for u in units:
        total += u
        if 2 * u > scale:
            big += 1
        if u * k <= scale:
            if small_load is None or small_load + u > scale:
                bins += 1
                per_class[k] = per_class.get(k, 0) + 1
                small_load = 0
            small_load += u
            continue
        j = scale // u
        count = filled.get(j, 0)
        if count == 0:
            bins += 1
            per_class[j] = per_class.get(j, 0) + 1
        filled[j] = 0 if count + 1 == j else count + 1
    lower = max(-(-total // scale), big)
    return {
        "bins_used": bins,
        "per_class_bins": per_class,
        "opt_lower_bound": lower,
        "ratio": Fraction(bins, lower) if lower else None,
        "total": Fraction(total, scale),
    }


def packing_mismatch(result, expected: dict):
    """Name of the first PackingResult field that differs, or None."""
    for field in ("bins_used", "per_class_bins", "opt_lower_bound", "ratio"):
        if getattr(result, field) != expected[field]:
            return field
    return None


def knapsack_check(k: int, mu: Fraction, counts, opt: Fraction):
    """Why (counts, opt) is not a feasible vector scoring opt, or None."""
    if len(counts) != k - 1 or any(c < 0 for c in counts):
        return f"argmax {counts} is not a count vector for k={k}"
    load = sum(Fraction(c, j + 1) for j, c in enumerate(counts, start=1))
    if load >= 1:
        return f"argmax {counts} is infeasible (cost {load})"
    value = mu + sum(c * (Fraction(1, j) - mu / (j + 1)) for j, c in enumerate(counts, start=1))
    if value != opt:
        return f"score(argmax) = {value} differs from opt {opt}"
    return None
