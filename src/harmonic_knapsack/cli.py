"""Command-line front end: the one place that parses options and renders output.

Subcommands: eval, ip-opt, table, sylvester, limit, witness, simulate. The
library returns exact values; every decimal printed is rendered here from
the fraction next to it, never from a float, and every fraction in JSON is
encoded by one json.dumps hook as {"num": "...", "den": "..."}.

Exit codes: 0 success, 1 domain error (bad parameter ranges, infeasible
inputs, unreadable files), 2 usage error (unknown flags, malformed values).
"""

from __future__ import annotations

import argparse
import csv
import json
import random
import sys
from fractions import Fraction
from itertools import islice

from .analysis import FAMILIES, build_witness, mu_for, tinf_bracket, witness_counts
from .binpack import adversarial_instance, harmonic_pack
from .exactnum import to_decimal
from .harmonic import MAX_DIGITS, HarmonicParams, KnapsackInstance, eval_fk, parse_rational
from .solvers import closed_form_pieces, solve
from .sylvester import sylvester_rows

__all__ = ["parse_rational_arg", "run", "main"]

TABLE_DIGITS = 8
LIMIT_DIGITS = 15
# the longest walk whose terms CPython still prints (term 16 has 6671 digits)
MAX_COUNT = 15
# a table row costs well under a millisecond at small k; rows are buffered
MAX_TABLE_ROWS = 1_000


def parse_rational_arg(s: str) -> Fraction:
    """argparse type for parse_rational: "p/q", an integer, or a finite decimal."""
    try:
        return parse_rational(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _frac_json(value) -> dict:
    """json.dumps hook: a Fraction becomes {"num", "den"}, anything else fails.

    Decimal strings sidestep integer-width limits in JSON consumers.
    """
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dump_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2, default=_frac_json))


def _dump_csv(header, rows) -> None:
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


def _params(args) -> HarmonicParams:
    """(k, mu) from --k and --mu, --family, or simulate's default family."""
    if args.mu is not None:
        mu = args.mu
    elif args.family is not None:
        mu = mu_for(args.family, args.k)
    else:
        # simulate's default: the lee rule k/(k-1) has no k=1 value, and the
        # packer ignores mu there anyway
        mu = mu_for("lee", args.k) if args.k > 1 else Fraction(1)
    return HarmonicParams(args.k, mu)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_eval(args, parser) -> None:
    params = _params(args)
    value = eval_fk(params, args.x)
    decimal = to_decimal(value, args.digits)
    if args.format == "json":
        _dump_json({"k": params.k, "mu": params.mu, "x": args.x, "value": value, "decimal": decimal})
    elif args.format == "csv":
        _dump_csv(["value", "decimal"], [[value, decimal]])
    else:
        print(f"{value} = {decimal}")


def _cmd_ip_opt(args, parser) -> None:
    params = _params(args)
    outcome = solve(params, method=args.method)
    decimal = to_decimal(outcome.opt, args.digits)
    report = outcome.report
    # m = 0 (k = 1 or mu >= 2) is rendered as undefined: no class is in play
    pieces = closed_form_pieces(params) if (args.explain or args.format == "json") else None
    if pieces is not None and pieces[0] == 0:
        pieces = None
    if args.format == "json":
        m, q, r_next, s_next = pieces or (None,) * 4
        _dump_json(
            {
                "k": params.k,
                "mu": params.mu,
                "method": outcome.method,
                "opt": outcome.opt,
                "decimal": decimal,
                "argmax": outcome.counts,
                "feasible_count": report.feasible_count if report else None,
                "nodes_visited": report.nodes_visited if report else None,
                "m": m,
                "q": q,
                "r_next": str(r_next) if r_next is not None else None,
                "s_next": s_next,
            }
        )
    elif args.format == "csv":
        argmax = " ".join(map(str, outcome.counts)) if outcome.counts is not None else ""
        count = report.feasible_count if report else ""
        _dump_csv(
            ["opt", "decimal", "method", "argmax", "feasible_count"],
            [[outcome.opt, decimal, outcome.method, argmax, count]],
        )
    else:
        print(f"opt = {outcome.opt} = {decimal}")
        print(f"method = {outcome.method}")
        if outcome.counts is not None:
            print(f"argmax = ({', '.join(map(str, outcome.counts))})")
        if report is not None:
            print(f"feasible_count = {report.feasible_count}")
        if args.explain:
            if pieces is None:
                print("explain: m is undefined (needs k >= 2 and mu < 2)")
            else:
                m, q, r_next, s_next = pieces
                print(f"m = {m}")
                print(f"Q = {q}")
                print(f"r[Q+1] = {r_next}")
                print(f"S[Q+1] = {s_next} = {to_decimal(s_next, args.digits)}")


def _cmd_table(args, parser) -> None:
    if args.k_min < 1:
        parser.error("--k-min must be >= 1")
    if args.k_max < args.k_min:
        parser.error("--k-max must be >= --k-min")
    if args.k_max - args.k_min + 1 > MAX_TABLE_ROWS:
        parser.error(f"at most {MAX_TABLE_ROWS} rows (--k-max - --k-min + 1)")
    columns = ["k", "mu", "opt", "decimal"]
    min_k, _ = FAMILIES[args.family]
    rows = []
    for k in range(args.k_min, args.k_max + 1):
        if k < min_k:  # the family has no slope there; the row prints as dashes
            rows.append((k, None, None, None))
            continue
        mu = mu_for(args.family, k)
        opt = solve(HarmonicParams(k, mu)).opt
        rows.append((k, mu, opt, to_decimal(opt, args.digits)))
    if args.format == "json":
        _dump_json({"family": args.family, "rows": [dict(zip(columns, row)) for row in rows]})
        return
    text_rows = [["--" if cell is None else str(cell) for cell in row] for row in rows]
    if args.format == "csv":
        _dump_csv(columns, text_rows)
        return
    widths = [max(map(len, cells)) for cells in zip(columns, *text_rows)]
    for row in [columns, *text_rows]:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))


def _cmd_sylvester(args, parser) -> None:
    columns = ["j", "r", "s", "decimal"]
    # r goes to JSON as a decimal string, like every other large integer
    rows = [
        (j, str(r), s, to_decimal(s, args.digits))
        for j, (r, s) in enumerate(islice(sylvester_rows(), args.count), start=1)
    ]
    if args.format == "json":
        _dump_json({"rows": [dict(zip(columns, row)) for row in rows]})
    elif args.format == "csv":
        _dump_csv(columns, rows)
    else:
        for row in rows:
            print("  ".join(map(str, row)))


def _cmd_limit(args, parser) -> None:
    bracket = tinf_bracket(args.terms)
    fields = {
        "terms": bracket.t,
        "lower": bracket.lower,
        "lower_decimal": to_decimal(bracket.lower, args.digits),
        "upper": bracket.upper,
        "upper_decimal": to_decimal(bracket.upper, args.digits),
        "width": bracket.width,
    }
    if args.format == "json":
        _dump_json(fields)
    elif args.format == "csv":
        _dump_csv(fields.keys(), [fields.values()])
    else:
        print(f"terms = {bracket.t}")
        print(f"lower = {bracket.lower} = {fields['lower_decimal']}")
        print(f"upper = {bracket.upper} = {fields['upper_decimal']}")
        print(f"width = {bracket.width} = {to_decimal(bracket.width, args.digits)}")


def _cmd_witness(args, parser) -> None:
    params = _params(args)
    counts, eps = witness_counts(params, args.eps)
    print(build_witness(params, counts, eps).to_json())


def _cmd_simulate(args, parser) -> None:
    params = _params(args)
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
            "mu": params.mu,
            "num_items": len(instance),
            "bins_used": result.bins_used,
            "per_class_bins": {str(c): n for c, n in result.per_class_bins.items()},
            "opt_lower_bound": result.opt_lower_bound,
            "ratio": result.ratio,
            "shuffle_seed": args.shuffle,
        }
    )


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_format(sub, default_digits: int) -> None:
    sub.add_argument("--format", choices=["text", "csv", "json"], default="text")
    sub.add_argument("--digits", type=_int_up_to(MAX_DIGITS), default=default_digits, help="decimal places")


def _add_params(sub, required: bool = True) -> None:
    """--k and exactly one of --mu or --family (at most one if not required)."""
    sub.add_argument("--k", type=int, required=True)
    slope = sub.add_mutually_exclusive_group(required=required)
    slope.add_argument("--mu", type=parse_rational_arg)
    slope.add_argument("--family", choices=sorted(FAMILIES))


def _add_eps(sub) -> None:
    sub.add_argument(
        "--eps",
        type=parse_rational_arg,
        default=Fraction(1, 1000),
        help="item inflation, clamped to the feasible range (default 1/1000)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonic-knapsack",
        description="Exact max-knapsack-profit of the size-classed harmonic "
        "payoff function, plus an online bin-packing simulator.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate the payoff function at one size")
    _add_params(p)
    p.add_argument("--x", type=parse_rational_arg, required=True)
    _add_format(p, TABLE_DIGITS)
    p.set_defaults(handler=_cmd_eval)

    p = subs.add_parser("ip-opt", help="optimal knapsack profit for (k, mu)")
    _add_params(p)
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
    _add_params(p)
    _add_eps(p)
    p.set_defaults(handler=_cmd_witness)

    p = subs.add_parser("simulate", help="run the online packer, result as JSON")
    _add_params(p, required=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--items", help="path to a JSON array of \"p/q\" sizes")
    source.add_argument("--adversarial", type=int, metavar="N", help="number of witness bundles")
    _add_eps(p)
    p.add_argument("--shuffle", type=int, metavar="SEED", help="shuffle arrival order")
    p.set_defaults(handler=_cmd_simulate)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args.handler(args, parser)
    except SystemExit as exc:  # argparse's own message, or parser.error in a handler
        return int(exc.code or 0)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
