"""Command-line front end.

Subcommands: eval, ip-opt, table, sylvester, limit, witness, simulate.
Every value is computed and printed from exact rationals; decimals shown
anywhere are rendered from the fraction next to them, never from a float.

Exit codes: 0 success, 1 domain error (bad parameter ranges, infeasible
inputs, unreadable files), 2 usage error (unknown flags, malformed values).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import random
import sys
from fractions import Fraction
from itertools import islice
from typing import Optional

from .analysis import FAMILIES, build_witness, monotonic_sweep, mu_for, tinf_bracket, witness_counts
from .binpack import adversarial_instance, harmonic_pack
from .exactnum import to_decimal
from .harmonic import HarmonicParams, KnapsackInstance, eval_fk
from .solvers import closed_form_pieces, solve
from .sylvester import sylvester_rows

__all__ = ["parse_rational_arg", "run", "main"]

TABLE_DIGITS = 8
LIMIT_DIGITS = 15
# CPython refuses to print an int of more than 4300 digits; these are the
# largest --digits and --count whose output stays within that.
MAX_DIGITS = 4300
MAX_COUNT = 15


def parse_rational_arg(s: str) -> Fraction:
    """Exact rational from "p/q", an integer, or a finite decimal."""
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise argparse.ArgumentTypeError(f"zero denominator in {s!r}") from None
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a rational: {s!r}") from None


def _frac_json(f: Fraction) -> dict:
    # decimal strings sidestep integer-width limits in JSON consumers
    return {"num": str(f.numerator), "den": str(f.denominator)}


def _dump_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _dump_csv(header: list[str], rows: list[list[str]]) -> None:
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _int_up_to(high: int):
    """argparse type accepting the integers in [1, high]."""

    def parse(s: str) -> int:
        try:
            value = int(s)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {s!r}") from None
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
        if value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}, got {value}")
        return value

    return parse


def _brute_cap(parser: argparse.ArgumentParser) -> Optional[int]:
    raw = os.environ.get("HARMONIC_BRUTE_CAP")
    if raw is None or raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        parser.error(f"HARMONIC_BRUTE_CAP must be an integer, got {raw!r}")


def _resolve_mu(args, parser: argparse.ArgumentParser, default_family: Optional[str] = None) -> Fraction:
    family = getattr(args, "family", None)
    mu = getattr(args, "mu", None)
    if mu is not None and family is not None:
        parser.error("--mu and --family are mutually exclusive")
    if mu is not None:
        return mu
    if family is not None:
        return mu_for(family, args.k)
    if default_family is None:
        parser.error("one of --mu or --family is required")
    if default_family == "lee" and args.k == 1:
        # the lee rule k/(k-1) has no k=1 value; the packer ignores mu anyway
        return Fraction(1)
    return mu_for(default_family, args.k)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_eval(args, parser) -> int:
    params = HarmonicParams(args.k, _resolve_mu(args, parser))
    value = eval_fk(params, args.x)
    decimal = to_decimal(value, args.digits)
    if args.format == "json":
        _dump_json(
            {
                "k": params.k,
                "mu": _frac_json(params.mu),
                "x": _frac_json(Fraction(args.x)),
                "value": _frac_json(value),
                "decimal": decimal,
            }
        )
    elif args.format == "csv":
        _dump_csv(["value", "decimal"], [[str(value), decimal]])
    else:
        print(f"{value} = {decimal}")
    return 0


def _cmd_ip_opt(args, parser) -> int:
    params = HarmonicParams(args.k, _resolve_mu(args, parser))
    outcome = solve(params, method=args.method, cap=_brute_cap(parser))
    decimal = to_decimal(outcome.opt, args.digits)
    explain = closed_form_pieces(params) if (args.explain or args.format == "json") else None
    if args.format == "json":
        payload = {
            "k": params.k,
            "mu": _frac_json(params.mu),
            "method": outcome.method,
            "opt": _frac_json(outcome.opt),
            "decimal": decimal,
            "argmax": list(outcome.counts) if outcome.counts is not None else None,
            "feasible_count": outcome.report.feasible_count if outcome.report else None,
            "nodes_visited": outcome.report.nodes_visited if outcome.report else None,
            "m": explain[0] if explain else None,
            "q": explain[1] if explain else None,
            "r_next": str(explain[2]) if explain else None,
            "s_next": _frac_json(explain[3]) if explain else None,
        }
        _dump_json(payload)
        return 0
    if args.format == "csv":
        argmax = " ".join(map(str, outcome.counts)) if outcome.counts is not None else ""
        count = str(outcome.report.feasible_count) if outcome.report else ""
        _dump_csv(
            ["opt", "decimal", "method", "argmax", "feasible_count"],
            [[str(outcome.opt), decimal, outcome.method, argmax, count]],
        )
        return 0
    print(f"opt = {outcome.opt} = {decimal}")
    print(f"method = {outcome.method}")
    if outcome.counts is not None:
        print(f"argmax = ({', '.join(map(str, outcome.counts))})")
    if outcome.report is not None:
        print(f"feasible_count = {outcome.report.feasible_count}")
    if args.explain:
        if explain is None:
            print("explain: m is undefined (needs k >= 2 and mu < 2)")
        else:
            m, q, r_next, s_next = explain
            print(f"m = {m}")
            print(f"Q = {q}")
            print(f"r[Q+1] = {r_next}")
            print(f"S[Q+1] = {s_next} = {to_decimal(s_next, args.digits)}")
    return 0


def _cmd_table(args, parser) -> int:
    fam = FAMILIES[args.family]
    if args.k_min < 1:
        parser.error("--k-min must be >= 1")
    if args.k_max < args.k_min:
        parser.error("--k-max must be >= --k-min")
    # the family has no slope below min_k; those rows print as dashes
    first = max(args.k_min, fam.min_k)
    rows = [(k, None, None, None) for k in range(args.k_min, min(first, args.k_max + 1))]
    if first <= args.k_max:
        sweep = monotonic_sweep(fam, first, args.k_max)
        rows += [(r.k, r.mu, r.opt, to_decimal(r.opt, args.digits)) for r in sweep.rows]
    if args.format == "json":
        _dump_json(
            {
                "family": fam.name,
                "rows": [
                    {
                        "k": k,
                        "mu": _frac_json(mu) if mu is not None else None,
                        "opt": _frac_json(opt) if opt is not None else None,
                        "decimal": dec,
                    }
                    for k, mu, opt, dec in rows
                ],
            }
        )
        return 0
    text_rows = [
        [str(k), str(mu) if mu is not None else "--", str(opt) if opt is not None else "--", dec or "--"]
        for k, mu, opt, dec in rows
    ]
    if args.format == "csv":
        _dump_csv(["k", "mu", "opt", "decimal"], text_rows)
        return 0
    widths = [max(len(r[i]) for r in text_rows + [["k", "mu", "opt", "decimal"]]) for i in range(4)]
    header = ["k", "mu", "opt", "decimal"]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for r in text_rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return 0


def _cmd_sylvester(args, parser) -> int:
    rows = [
        (j, r, s, to_decimal(s, args.digits))
        for j, (r, s) in enumerate(islice(sylvester_rows(), args.count), start=1)
    ]
    if args.format == "json":
        _dump_json(
            {
                "rows": [
                    {"j": j, "r": str(r), "s": _frac_json(s), "decimal": dec}
                    for j, r, s, dec in rows
                ]
            }
        )
        return 0
    text_rows = [[str(j), str(r), str(s), dec] for j, r, s, dec in rows]
    if args.format == "csv":
        _dump_csv(["j", "r", "s", "decimal"], text_rows)
        return 0
    for r in text_rows:
        print("  ".join(r))
    return 0


def _cmd_limit(args, parser) -> int:
    bracket = tinf_bracket(args.terms, digits=args.digits)
    width_decimal = to_decimal(bracket.width, args.digits)
    if args.format == "json":
        _dump_json(
            {
                "terms": bracket.t,
                "lower": _frac_json(bracket.lower),
                "lower_decimal": bracket.lower_decimal,
                "upper": _frac_json(bracket.upper),
                "upper_decimal": bracket.upper_decimal,
                "width": _frac_json(bracket.width),
            }
        )
        return 0
    if args.format == "csv":
        _dump_csv(
            ["terms", "lower", "lower_decimal", "upper", "upper_decimal", "width"],
            [
                [
                    str(bracket.t),
                    str(bracket.lower),
                    bracket.lower_decimal,
                    str(bracket.upper),
                    bracket.upper_decimal,
                    str(bracket.width),
                ]
            ],
        )
        return 0
    print(f"terms = {bracket.t}")
    print(f"lower = {bracket.lower} = {bracket.lower_decimal}")
    print(f"upper = {bracket.upper} = {bracket.upper_decimal}")
    print(f"width = {bracket.width} = {width_decimal}")
    return 0


def _cmd_witness(args, parser) -> int:
    params = HarmonicParams(args.k, _resolve_mu(args, parser))
    counts, eps = witness_counts(params, args.eps)
    instance = build_witness(params, counts, eps)
    print(instance.to_json())
    return 0


def _cmd_simulate(args, parser) -> int:
    params = HarmonicParams(args.k, _resolve_mu(args, parser, default_family="lee"))
    if args.items is not None:
        with open(args.items, "r", encoding="utf-8") as fh:
            instance = KnapsackInstance.from_json(fh.read())
    else:
        instance = adversarial_instance(params, args.adversarial, args.eps)
    if args.shuffle is not None:
        items = list(instance.items)
        random.Random(args.shuffle).shuffle(items)
        instance = KnapsackInstance(tuple(items))
    result = harmonic_pack(params, instance)
    _dump_json(
        {
            "k": params.k,
            "mu": _frac_json(params.mu),
            "num_items": len(instance),
            "bins_used": result.bins_used,
            "per_class_bins": {str(c): n for c, n in result.per_class_bins.items()},
            "opt_lower_bound": result.opt_lower_bound,
            "ratio": _frac_json(result.ratio) if result.ratio is not None else None,
            "shuffle_seed": args.shuffle,
        }
    )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_format(sub, default_digits: int) -> None:
    sub.add_argument("--format", choices=["text", "csv", "json"], default="text")
    sub.add_argument("--digits", type=_int_up_to(MAX_DIGITS), default=default_digits, help="decimal places")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonic-knapsack",
        description="Exact max-knapsack-profit of the size-classed harmonic "
        "payoff function, plus an online bin-packing simulator.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate the payoff function at one size")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu", type=parse_rational_arg)
    p.add_argument("--family", choices=sorted(FAMILIES))
    p.add_argument("--x", type=parse_rational_arg, required=True)
    _add_format(p, TABLE_DIGITS)
    p.set_defaults(handler=_cmd_eval)

    p = subs.add_parser("ip-opt", help="optimal knapsack profit for (k, mu)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu", type=parse_rational_arg)
    p.add_argument("--family", choices=sorted(FAMILIES))
    p.add_argument("--method", choices=["auto", "brute", "closed", "greedy"], default="auto")
    p.add_argument("--explain", action="store_true", help="show m, Q and the prefix-sum pieces")
    _add_format(p, TABLE_DIGITS)
    p.set_defaults(handler=_cmd_ip_opt)

    p = subs.add_parser("table", help="optimum per k under a slope family")
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--k-min", type=int, required=True)
    p.add_argument("--k-max", type=int, required=True)
    _add_format(p, TABLE_DIGITS)
    p.set_defaults(handler=_cmd_table)

    p = subs.add_parser("sylvester", help="sequence terms and reciprocal prefix sums")
    p.add_argument("--count", type=_int_up_to(MAX_COUNT), required=True)
    _add_format(p, LIMIT_DIGITS)
    p.set_defaults(handler=_cmd_sylvester)

    p = subs.add_parser("limit", help="two-sided bracket on the limiting optimum")
    p.add_argument("--terms", type=int, required=True)
    _add_format(p, LIMIT_DIGITS)
    p.set_defaults(handler=_cmd_limit)

    p = subs.add_parser("witness", help="near-optimal instance as JSON sizes")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu", type=parse_rational_arg)
    p.add_argument("--family", choices=sorted(FAMILIES))
    p.add_argument(
        "--eps",
        type=parse_rational_arg,
        default=Fraction(1, 1000),
        help="item inflation, clamped to the feasible range (default 1/1000)",
    )
    p.set_defaults(handler=_cmd_witness)

    p = subs.add_parser("simulate", help="run the online packer, result as JSON")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--mu", type=parse_rational_arg)
    p.add_argument("--family", choices=sorted(FAMILIES))
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--items", help="path to a JSON array of \"p/q\" sizes")
    source.add_argument("--adversarial", type=int, metavar="N", help="number of witness bundles")
    p.add_argument(
        "--eps",
        type=parse_rational_arg,
        default=Fraction(1, 1000),
        help="item inflation, clamped to the feasible range (default 1/1000)",
    )
    p.add_argument("--shuffle", type=int, metavar="SEED", help="shuffle arrival order")
    p.set_defaults(handler=_cmd_simulate)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return int(exc.code or 0)
    try:
        return args.handler(args, parser)
    except SystemExit as exc:  # parser.error inside a handler
        return int(exc.code or 0)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
