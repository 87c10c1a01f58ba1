"""Byte-identity check of the CLI: one sha256 per group of commands.

Every command of a fixed grid runs in process through
harmonic_knapsack.cli.run. Its argv, exit code, stdout and stderr go into
the digest of its group, and the digests are compared with the committed
tools/golden.json; a mismatch names its group. `--help` and usage errors
(exit 2) add only their argv and exit code, because argparse's wording
differs between Python versions; tests/test_cli.py checks those texts.
A change that means to alter output regenerates the file in the same commit.

    PYTHONPATH=src python tools/golden.py               # check every group
    PYTHONPATH=src python tools/golden.py --write       # regenerate tools/golden.json
    PYTHONPATH=src python tools/golden.py --show GROUP  # print one group's outputs

--show prints each command of the group with its exit code, stdout and
stderr, so that two checkouts can be compared with diff. The whole grid
takes about 13 s on a 2-vCPU VM under CPython 3.11; tests/test_golden.py
runs the groups for which quick() holds, about 2 s. Stdlib only.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import time
from fractions import Fraction

from harmonic_knapsack.cli import run

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

TINY = "1/1" + "0" * 4299  # 1/10^4299, the longest denominator a rational option takes
NEAR_ONE = str(1 - Fraction(1, 10**60))
SLOPES = ["0", TINY, "1/3", "1/2", "5/7", "11/12", NEAR_ONE, "1", "10/9", "4/3", "3/2", "2", "5/2"]
SLOPE_ARGS = [["--mu", mu] for mu in SLOPES] + [["--family", "lee"]]
KS = [*range(1, 21), 200, 1000, 1001, 10_000, 10_001]
HUGE_KS = [10**100, 10**1300 - 1]  # the second has the most digits --k takes
METHODS = ["auto", "brute", "closed", "greedy"]
FORMATS = ["text", "csv", "json"]
DIGITS = ["1", "15", "4300"]
EPS = ["1/10", "1/1000", TINY]
# tests/test_golden.py runs the groups at these k and every group without a
# --k. That leaves out the auto calls at k = 10,000 below mu = 1, which run
# branch-and-bound on 14,000-bit integers at up to about 0.5 s a call.
QUICK_KS = {*range(1, 5), 10_001}

# --items files, written to a temporary directory; "@name" in an argv is its path
ITEMS = {
    "witness.json": ["101/200", "101/300", "19/120"],
    "spread.json": [f"{i * 7919 % 997 + 1}/997" for i in range(300)],
    "coprime.json": [f"1/{10**200 + i}" for i in range(20)],
    "float.json": [1, "1/2"],
    "outside.json": ["1/2", "3/2"],
}


def _formatted(argv: list[str], digits=DIGITS) -> list[list[str]]:
    return [[*argv, "--format", f, "--digits", d] for f in FORMATS for d in digits]


def grid() -> dict[str, list[list[str]]]:
    """Group name -> the commands of that group, each an argv list."""
    groups: dict[str, list[list[str]]] = {}
    for k in KS:
        for method in METHODS:
            groups[f"ip-opt --method {method} --k {k}"] = [
                ["ip-opt", "--k", str(k), *slope, "--method", method, "--format", f, *explain]
                for slope in SLOPE_ARGS
                for f in FORMATS
                for explain in ([], ["--explain"])
            ]
    groups["ip-opt huge k"] = [
        ["ip-opt", "--k", str(k), "--family", family, "--method", method, "--format", f, "--explain"]
        for k in HUGE_KS
        for family in ("lee", "caprara", "refined")
        for method in METHODS
        for f in FORMATS
    ]
    for k in KS:
        groups[f"witness --k {k}"] = [
            ["witness", "--k", str(k), *slope, "--eps", eps] for slope in SLOPE_ARGS for eps in EPS
        ]
        groups[f"simulate --adversarial --k {k}"] = [
            ["simulate", "--k", str(k), *slope, "--adversarial", "2", "--eps", eps]
            for slope in [[], *SLOPE_ARGS]
            for eps in EPS
        ]
    groups["simulate --items"] = [
        ["simulate", "--k", k, *mu, "--items", f"@{name}", *shuffle]
        for name in ITEMS
        for k in ("1", "3", "4", "12")
        for mu in ([], ["--mu", "3/2"])
        for shuffle in ([], ["--shuffle", "7"])
    ]
    groups["eval"] = [
        cmd
        for k in ("1", "4", str(10**100))
        for slope in (["--mu", "0"], ["--mu", "4/3"], ["--mu", TINY], ["--family", "lee"])
        for x in ("0", TINY, "2/7", "1/2", "1", "3/2")
        for cmd in _formatted(["eval", "--k", k, *slope, "--x", x])
    ]
    groups["limit"] = [cmd for t in range(14) for cmd in _formatted(["limit", "--terms", str(t)])]
    groups["sylvester"] = [
        cmd for count in range(1, 16) for cmd in _formatted(["sylvester", "--count", str(count)])
    ]
    for family in ("lee", "caprara", "refined"):
        groups[f"table --family {family}"] = [
            cmd
            for lo, hi in ((1, 30), (10**100, 10**100 + 3))
            for cmd in _formatted(
                ["table", "--family", family, "--k-min", str(lo), "--k-max", str(hi)], ["1", "8", "4300"]
            )
        ]
    groups["readme"] = [
        ["eval", "--k", "4", "--mu", "4/3", "--x", "2/7"],
        ["ip-opt", "--k", "10", "--mu", "80/71", "--explain"],
        ["ip-opt", "--k", "12", "--family", "lee"],
        ["table", "--family", "lee", "--k-min", "2", "--k-max", "12"],
        ["sylvester", "--count", "7"],
        ["limit", "--terms", "10"],
        ["witness", "--k", "4", "--mu", "4/3", "--eps", "1/100"],
        ["simulate", "--k", "12", "--adversarial", "1000", "--eps", "1/1000"],
        ["simulate", "--k", "3", "--mu", "3/2", "--items", "@witness.json", "--shuffle", "7"],
    ]
    groups["usage"] = [
        ["--help"],
        ["limit", "--help"],
        [],
        ["eval", "--k", "4", "--mu", "1_0/3", "--x", "1/2"],
        ["ip-opt", "--k", "4", "--mu", "1/2", "--family", "lee"],
        ["ip-opt", "--k", "4", "--mu", "1/2", "--digits", "0"],
        ["limit", "--terms", "10", "--digits", "4301"],
        ["sylvester", "--count", "16"],
        ["table", "--family", "lee", "--k-min", "5", "--k-max", "4"],
        ["table", "--family", "lee", "--k-min", "1", "--k-max", "1001"],
    ]
    return groups


def _run(argv: list[str], files: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process cli.run call."""
    argv = [os.path.join(files, word[1:]) if word.startswith("@") else word for word in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _items_dir(tmp: str) -> str:
    for name, sizes in ITEMS.items():
        with open(os.path.join(tmp, name), "w", encoding="utf-8") as fh:
            json.dump(sizes, fh)
    return tmp


def digests(names) -> dict[str, str]:
    """Group name -> sha256 over each command's argv, exit code, stdout and stderr."""
    groups = grid()
    result = {}
    with tempfile.TemporaryDirectory() as tmp:
        files = _items_dir(tmp)
        for name in names:
            h = hashlib.sha256()
            for argv in groups[name]:
                code, out, err = _run(argv, files)
                fields = [json.dumps(argv), str(code)]
                if code != 2 and "--help" not in argv:
                    fields += [out, err]
                for field in fields:
                    data = field.encode()
                    h.update(b"%d:" % len(data) + data)
            result[name] = h.hexdigest()
    return result


def quick(name: str) -> bool:
    """Whether tests/test_golden.py runs the group: one without a --k, or one at a k in QUICK_KS."""
    _, sep, k = name.rpartition(" --k ")
    return not sep or int(k) in QUICK_KS


def load() -> dict[str, str]:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def mismatches(names) -> list[str]:
    """The groups among names whose digest differs from, or is missing in, tools/golden.json."""
    expected = load()
    return [name for name, digest in digests(names).items() if expected.get(name) != digest]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare the CLI's output with tools/golden.json.")
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--write", action="store_true", help="regenerate tools/golden.json")
    action.add_argument("--show", metavar="GROUP", help="print each command of GROUP and its output")
    args = parser.parse_args(argv)
    groups = grid()
    if args.show is not None:
        if args.show not in groups:
            parser.error(f"no group {args.show!r}")
        with tempfile.TemporaryDirectory() as tmp:
            files = _items_dir(tmp)
            for cmd in groups[args.show]:
                code, out, err = _run(cmd, files)
                print(f"$ {' '.join(cmd)}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}")
        return 0
    start = time.perf_counter()
    got = digests(groups)
    elapsed = time.perf_counter() - start
    commands = sum(map(len, groups.values()))
    if args.write:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(got, fh, indent=1)
            fh.write("\n")
        print(f"wrote {len(got)} digests over {commands:,} commands to {GOLDEN} ({elapsed:.1f} s)")
        return 0
    expected = load()
    bad = [name for name in {**expected, **got} if expected.get(name) != got.get(name)]
    for name in bad:
        print(f"MISMATCH {name}: {expected.get(name, 'missing')} expected, {got.get(name, 'missing')} now")
    print(f"{len(got) - len(bad)} of {len(got)} groups match over {commands:,} commands ({elapsed:.1f} s)")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
