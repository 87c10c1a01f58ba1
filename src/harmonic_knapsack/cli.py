"""Command-line front end: the one place that reads outside text and renders output.

Outside text is the options, the rationals of --mu, --x and --eps, and the
--items files. One ASCII pattern, _NUMBER, decides every number in it alike on
every Python version; each digit bound follows from CPython's 4300-digit limit.

Subcommands: eval, ip-opt, table, sylvester, limit, witness, simulate. The
library returns exact values; every decimal printed is rendered here from
the fraction next to it, never from a float, and every fraction in JSON is
encoded by one json.dumps hook as {"num": "...", "den": "..."}.

Each handler with a --format option builds its result once, as a JSON
record, CSV columns and rows, and text lines; _emit alone picks which one
to print. A CSV field is an integer, a fraction, a decimal, a method name,
space-separated counts or "--", none of which holds a comma, a quote or a
line break, so a plain comma join is the CSV that csv.writer would write.
witness and simulate print JSON only.

Exit codes: 0 success, 1 domain error (bad parameter ranges, infeasible
inputs, unreadable files) or a stdout closed early, which prints nothing,
2 usage error (unknown flags, malformed values).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from itertools import islice

from .analysis import FAMILIES, build_witness, mu_for, tinf_bracket
from .binpack import adversarial_instance, harmonic_pack
from .exactnum import to_decimal
from .harmonic import HarmonicParams, eval_fk
from .solvers import closed_form_pieces, solve, sylvester_rows

__all__ = ["parse_rational_arg", "run", "main"]

TABLE_DIGITS = 8
LIMIT_DIGITS = 15
# CPython refuses to print an int of more than 4300 digits, so no rational
# read from outside may carry more than that on either side of its slash;
# MAX_COUNT and MAX_K_DIGITS below are set so that what they admit still prints.
MAX_DIGITS = 4300
_TOO_LONG = 10**MAX_DIGITS
# [sign]digits/digits or [sign][digits][.digits][e[sign]digits] in ASCII, blanks only
# around the text; an integer is a match whose last group is "num"
_NUMBER = re.compile(r"\s*[-+]?(?=\.?[0-9])(?P<num>[0-9]*)(?:/(?P<den>[0-9]+)|"
                     r"(?:\.(?P<frac>[0-9]*))?(?:[eE](?P<exp>[-+]?[0-9]+))?)\s*", re.ASCII)
_DIGIT_RUN = re.compile("[0-9]+")
# the longest walk whose terms CPython still prints (term 16 has 6671 digits)
MAX_COUNT = 15
# a table row costs well under a millisecond at small k; rows are buffered
MAX_TABLE_ROWS = 1_000
# Every family's optimum at the largest k of up to 1316 digits still prints
# (its denominator grows with k).
MAX_K_DIGITS = 1_300
# Options that take a rational. argparse reads a separate word such as "-1/3"
# or "-1e3" as an option (only "-123" and "-1.5" pass as negative numbers),
# so run() joins such a word to its option before parsing.
RATIONAL_OPTIONS = ("--mu", "--x", "--eps")


def parse_rational(text: str) -> Fraction:
    """Exact rational from "p/q", an integer, or a finite decimal such as 1.75 or 2e-3.

    Numerator, denominator and each run of digits have at most MAX_DIGITS
    digits. The exponent is checked before Fraction builds 10**exponent: the
    mantissa has fewer than len(text) digits to cancel, so an exponent beyond
    MAX_DIGITS + len(text) can only give a longer result.
    """
    if all(len(run) <= MAX_DIGITS for run in _DIGIT_RUN.findall(text)):
        if (match := _NUMBER.fullmatch(text)) is None:
            raise ValueError("not a rational")
        if match["den"] and not int(match["den"]):
            raise ValueError("zero denominator")
        if abs(int(match["exp"] or 0)) <= MAX_DIGITS + len(text):
            value = Fraction(text)
            if abs(value.numerator) < _TOO_LONG and value.denominator < _TOO_LONG:
                return value
    raise ValueError(f"value has more than {MAX_DIGITS} digits in its numerator or denominator")


def parse_sizes(text: str) -> tuple[Fraction, ...]:
    """Sizes from a JSON array of "p/q" strings via parse_rational; harmonic_pack checks the range."""
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError):  # not JSON, an int past CPython's limit, or nested too deep
        raw = None
    if not isinstance(raw, list) or not all(isinstance(s, str) for s in raw):
        raise ValueError('expected a JSON array of "p/q" strings')
    return tuple(parse_rational(s) for s in raw)


def parse_rational_arg(s: str) -> Fraction:
    """argparse type for parse_rational: "p/q", an integer, or a finite decimal."""
    try:
        return parse_rational(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _join_negative_rationals(argv: list[str]) -> list[str]:
    """`--eps -1/3` becomes `--eps=-1/3`, so both spellings reach the value check.

    Only a word that starts with "-" and then an ASCII digit or "." is joined,
    and only to a rational option or an abbreviation of one.
    """
    out: list[str] = []
    for word in argv:
        prev = out[-1] if out else ""
        if (
            re.match("-[0-9.]", word)
            and len(prev) > 2
            and any(name.startswith(prev) for name in RATIONAL_OPTIONS)
        ):
            out[-1] = f"{prev}={word}"
        else:
            out.append(word)
    return out


def _frac_json(value) -> dict:
    """json.dumps hook: a Fraction becomes {"num", "den"}, anything else fails.

    Decimal strings sidestep integer-width limits in JSON consumers.
    """
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _dump_json(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2, default=_frac_json))


def _emit(args, record, columns, rows, lines) -> None:
    """Print one result in args.format: record as JSON, columns and rows as CSV, or lines."""
    if args.format == "json":
        _dump_json(record)
        return
    if args.format == "csv":
        lines = [",".join(map(str, row)) for row in [columns, *rows]]
    print(*lines, sep="\n")


def _int_arg(low=None, high=None, digits: int = MAX_DIGITS):
    """argparse type: an integer of at most `digits` digits, in [low, high] where given.

    The messages name the bound and never echo the value, which may run to
    thousands of digits.
    """

    def parse(s: str) -> int:
        if sum(map(len, _DIGIT_RUN.findall(s))) > digits:
            raise argparse.ArgumentTypeError(f"must have at most {digits} digits")
        if (match := _NUMBER.fullmatch(s)) is None or match.lastgroup != "num":
            raise argparse.ArgumentTypeError("not an integer")
        value = int(s)
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be <= {high}")
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
    record = {"k": params.k, "mu": params.mu, "x": args.x, "value": value, "decimal": decimal}
    _emit(args, record, ["value", "decimal"], [[value, decimal]], [f"{value} = {decimal}"])


def _cmd_ip_opt(args, parser) -> None:
    params = _params(args)
    outcome = solve(params, method=args.method)
    decimal = to_decimal(outcome.opt, args.digits)
    counts, feasible = outcome.counts, outcome.feasible_count
    m, q, r_next, s_next = closed_form_pieces(params)
    if m == 0:  # k = 1 or mu >= 2: no class is in play, so the pieces are undefined
        m = q = r_next = s_next = None
    record = {
        "k": params.k,
        "mu": params.mu,
        "method": outcome.method,
        "opt": outcome.opt,
        "decimal": decimal,
        "argmax": counts,
        "feasible_count": feasible,
        "nodes_visited": outcome.nodes_visited,
        "m": m,
        "q": q,
        "r_next": str(r_next) if r_next is not None else None,
        "s_next": s_next,
    }
    argmax = " ".join(map(str, counts)) if counts is not None else ""
    row = [outcome.opt, decimal, outcome.method, argmax, "" if feasible is None else feasible]
    lines = [f"opt = {outcome.opt} = {decimal}", f"method = {outcome.method}"]
    if counts is not None:
        lines.append(f"argmax = ({', '.join(map(str, counts))})")
    if feasible is not None:
        lines.append(f"feasible_count = {feasible}")
    if args.explain and m is None:
        lines.append("explain: m is undefined (needs k >= 2 and mu < 2)")
    elif args.explain:
        lines += [f"m = {m}", f"Q = {q}", f"r[Q+1] = {r_next}"]
        lines.append(f"S[Q+1] = {s_next} = {to_decimal(s_next, args.digits)}")
    _emit(args, record, ["opt", "decimal", "method", "argmax", "feasible_count"], [row], lines)


def _cmd_table(args, parser) -> None:
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
    record = {"family": args.family, "rows": [dict(zip(columns, row)) for row in rows]}
    text_rows = [["--" if cell is None else str(cell) for cell in row] for row in rows]
    widths = [max(map(len, cells)) for cells in zip(columns, *text_rows)]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in [columns, *text_rows]]
    _emit(args, record, columns, text_rows, lines)


def _cmd_sylvester(args, parser) -> None:
    columns = ["j", "r", "s", "decimal"]
    # r goes to JSON as a decimal string, like every other large integer
    rows = [
        (j, str(r), s, to_decimal(s, args.digits))
        for j, (r, s) in enumerate(islice(sylvester_rows(), args.count), start=1)
    ]
    record = {"rows": [dict(zip(columns, row)) for row in rows]}
    _emit(args, record, columns, rows, ["  ".join(map(str, row)) for row in rows])


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
    lines = [
        f"terms = {bracket.t}",
        f"lower = {bracket.lower} = {fields['lower_decimal']}",
        f"upper = {bracket.upper} = {fields['upper_decimal']}",
        f"width = {bracket.width} = {to_decimal(bracket.width, args.digits)}",
    ]
    _emit(args, fields, fields, [fields.values()], lines)


def _cmd_witness(args, parser) -> None:
    print(json.dumps([str(x) for x in build_witness(_params(args), args.eps)]))


def _cmd_simulate(args, parser) -> None:
    params = _params(args)
    if args.items is not None:
        with open(args.items, "r", encoding="utf-8") as fh:
            items = parse_sizes(fh.read())
    else:
        items = adversarial_instance(params, args.adversarial, args.eps)
    if args.shuffle is not None:
        import random  # only --shuffle needs it; kept off the start-up path
        items = list(items)
        random.Random(args.shuffle).shuffle(items)
    result = harmonic_pack(params, items)
    _dump_json(
        {
            "k": params.k,
            "mu": params.mu,
            "num_items": len(items),
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
    sub.add_argument("--digits", type=_int_arg(1, MAX_DIGITS), default=default_digits, help="decimal places")


def _add_params(sub, required: bool = True) -> None:
    """--k and exactly one of --mu or --family (at most one if not required)."""
    sub.add_argument("--k", type=_int_arg(digits=MAX_K_DIGITS), required=True)
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
    p.add_argument("--k-min", type=_int_arg(1, digits=MAX_K_DIGITS), required=True)
    p.add_argument("--k-max", type=_int_arg(digits=MAX_K_DIGITS), required=True)
    _add_format(p, TABLE_DIGITS)
    p.set_defaults(handler=_cmd_table)

    p = subs.add_parser("sylvester", help="sequence terms and reciprocal prefix sums")
    p.add_argument("--count", type=_int_arg(1, MAX_COUNT), required=True)
    _add_format(p, LIMIT_DIGITS)
    p.set_defaults(handler=_cmd_sylvester)

    p = subs.add_parser("limit", help="two-sided bracket on the limiting optimum")
    p.add_argument("--terms", type=_int_arg(), required=True)
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
    source.add_argument("--adversarial", type=_int_arg(), metavar="N", help="number of witness bundles")
    _add_eps(p)
    p.add_argument("--shuffle", type=_int_arg(), metavar="SEED", help="shuffle arrival order")
    p.set_defaults(handler=_cmd_simulate)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    argv = _join_negative_rationals(sys.argv[1:] if argv is None else list(argv))
    try:
        try:
            args = parser.parse_args(argv)
            args.handler(args, parser)
        finally:  # --help exits through here too
            sys.stdout.flush()  # so that a closed pipe shows here, not at interpreter exit
    except SystemExit as exc:  # argparse's own message, or parser.error in a handler
        return int(exc.code or 0)
    except BrokenPipeError:  # stdout closed early (`... | head`): exit 1 quietly
        # the interpreter flushes stdout again at exit; give that flush somewhere to go
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    raise SystemExit(run(sys.argv[1:]))
