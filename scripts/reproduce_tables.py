#!/usr/bin/env python3
"""Regenerate the reference tables and the limit bracket on stdout.

Everything is exact; the decimals are rendered from the fractions they sit
next to. Equivalent CLI calls are shown before each block.
"""

from harmonic_knapsack.cli import run

COMMANDS = [
    *(f"table --family {family} --k-min 2 --k-max 12" for family in ("lee", "caprara", "refined")),
    "sylvester --count 7",
    "limit --terms 10",
]


def main() -> int:
    for i, line in enumerate(COMMANDS):
        if i:
            print()
        print(f"$ harmonic-knapsack {line}")
        run(line.split())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
