"""Exact number helpers on top of int and fractions.Fraction.

Python ints are arbitrary precision, and Fraction keeps every value reduced
with a positive denominator, which is exactly the canonical form the rest of
this package relies on. What the stdlib does not provide is deterministic
fixed-point rendering, so that lives here.
"""

from __future__ import annotations

__all__ = ["to_decimal"]


def to_decimal(value, digits: int) -> str:
    """Fixed-point rendering with exactly `digits` fractional places.

    value is a Fraction, int, finite float or Decimal, read at its exact
    value through as_integer_ratio().

    Ties round half away from zero: 0.125 -> "0.13" at two places, and
    -0.125 -> "-0.13". No float arithmetic runs, so the output is bit-stable
    across platforms.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    num, den = value.as_integer_ratio()
    scale = 10**digits
    units, rem = divmod(abs(num) * scale, den)
    if 2 * rem >= den:
        units += 1
    whole, frac = divmod(units, scale)
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{str(frac).zfill(digits)}"
