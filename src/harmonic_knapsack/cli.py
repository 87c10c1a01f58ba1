"""Command-line front end: the one place that reads outside text and renders output.

Outside text is the options, the rationals of --mu, --x and --eps, and the
--items files. One ASCII pattern, _NUMBER, decides every number in it alike on
every Python version; each digit bound follows from CPython's 4300-digit limit.
For every option, a separate word that starts with "-" and then a digit or "."
is its value, as after "=" (argparse alone admits only "-123" and "-1.5"). An
--items file is read up to MAX_ITEMS_CHARS characters.

Subcommands: eval, ip-opt, table, sylvester, limit, witness, simulate. The
library returns exact values; every decimal printed is rendered here from
the fraction next to it, never from a float, and every fraction in JSON is
encoded by one json.dumps hook as {"num": "...", "den": "..."}.

The subcommand table, _SUBCOMMANDS, declares each command once: its help,
options, default --digits and handler. A command with a default --digits
(8 places for eval, ip-opt and table, 15 for sylvester and limit) prints
text, CSV or JSON by --format; witness and simulate have none and print
JSON only.

Each handler with a --format option builds its result once, as a JSON
record, CSV columns and rows, and text lines; _emit alone picks which one
to print. A CSV field is an integer, a fraction, a decimal, a method name,
space-separated counts or "--", none of which holds a comma, a quote or a
line break, so a plain comma join is the CSV that csv.writer would write.

Start-up is most of a call, so a call builds only the subparser its first
word names (all seven for --help, an unknown word or none), and json is
imported only to read --items or to print JSON.

Exit codes: 0 success, 1 domain error (bad parameter ranges, infeasible
inputs, unreadable files) or a stdout closed early, which prints nothing,
2 usage error (unknown flags, malformed values).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from itertools import islice

from .analysis import FAMILIES, build_witness, mu_for, tinf_bracket
from .binpack import adversarial_instance, harmonic_pack
from .exactnum import to_decimal
from .harmonic import HarmonicParams, eval_fk
from .solvers import ROUTES, closed_form_pieces, solve, sylvester_rows

__all__ = ["parse_rational_arg", "run", "main"]

# CPython refuses to print an int of more than 4300 digits, so no rational
# read from outside may carry more than that on either side of its slash, nor
# may a computed result that prints as a fraction (_printable);
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
# an --items file is read up to this many characters (4 MiB of ASCII, over
# 200,000 sizes written as "p/1000000") and refused beyond it
MAX_ITEMS_CHARS = 2**22


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
            return _printable(Fraction(text), "value")
    raise ValueError(f"value has more than {MAX_DIGITS} digits in its numerator or denominator")


def _printable(value: Fraction, name: str = "the result") -> Fraction:
    """value itself, or a ValueError naming it if a side has more digits than CPython prints."""
    if abs(value.numerator) < _TOO_LONG and value.denominator < _TOO_LONG:
        return value
    raise ValueError(f"{name} has more than {MAX_DIGITS} digits in its numerator or denominator")


def parse_sizes(text: str) -> tuple[Fraction, ...]:
    """Sizes from a JSON array of "p/q" strings via parse_rational; harmonic_pack checks the range.

    A text of more than MAX_ITEMS_CHARS characters is refused unparsed, so a
    caller need read no more than one character past the bound.
    """
    import json  # only --items and JSON output need it; kept off the start-up path

    if len(text) > MAX_ITEMS_CHARS:
        raise ValueError(f"an --items file may hold at most {MAX_ITEMS_CHARS} characters")
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


def _dump_json(obj) -> None:
    """Print obj, made of int, str, None, list, dict and Fraction, as JSON.

    A Fraction becomes {"num": "...", "den": "..."}: decimal strings sidestep
    integer-width limits in JSON consumers.
    """
    import json

    print(json.dumps(obj, sort_keys=True, indent=2,
                     default=lambda f: {"num": str(f.numerator), "den": str(f.denominator)}))


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
    value = _printable(eval_fk(params, args.x))
    decimal = to_decimal(value, args.digits)
    record = {"k": params.k, "mu": params.mu, "x": args.x, "value": value, "decimal": decimal}
    _emit(args, record, ["value", "decimal"], [[value, decimal]], [f"{value} = {decimal}"])


def _cmd_ip_opt(args, parser) -> None:
    params = _params(args)
    outcome = solve(params, method=args.method)
    decimal = to_decimal(_printable(outcome.opt), args.digits)
    counts, feasible = outcome.counts, outcome.feasible_count
    m, classes, r_next, s_next = closed_form_pieces(params)
    q = len(classes)
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
        # search counts print only beside the exhaustive search's feasible count
        "nodes_visited": None if feasible is None else outcome.nodes_visited,
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
    import json

    print(json.dumps([str(_printable(x)) for x in build_witness(_params(args), args.eps)]))


def _cmd_simulate(args, parser) -> None:
    params = _params(args)
    if args.items is not None:
        with open(args.items, "r", encoding="utf-8") as fh:
            items = parse_sizes(fh.read(MAX_ITEMS_CHARS + 1))
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


class _Parser(argparse.ArgumentParser):
    """argparse's parser with two changes; subparsers are built from it too.

    A separate word that starts with "-" and then an ASCII digit or "." is a
    value, after any option and as the command word: argparse alone admits
    only "-123" and "-1.5", and reads "-1/3", "-1e3" and "-.5e1" as options.
    So `--k -1e3` and `--k=-1e3` reach the same check. --help lets a failed
    write raise, so a closed stdout exits 1 as for any output.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # argparse's private test, matched at a word's start (the same name and use in 3.10-3.13)
        self._negative_number_matcher = re.compile("-[0-9.]")

    def print_help(self, file=None) -> None:
        (file or sys.stdout).write(self.format_help())


def _eval_options(p) -> None:
    _add_params(p)
    p.add_argument("--x", type=parse_rational_arg, required=True)


def _ip_opt_options(p) -> None:
    _add_params(p)
    p.add_argument("--method", choices=["auto", *ROUTES], default="auto")
    p.add_argument("--explain", action="store_true", help="show m, Q and the prefix-sum pieces")


def _table_options(p) -> None:
    p.add_argument("--family", choices=sorted(FAMILIES), required=True)
    p.add_argument("--k-min", type=_int_arg(1, digits=MAX_K_DIGITS), required=True)
    p.add_argument("--k-max", type=_int_arg(digits=MAX_K_DIGITS), required=True)


def _sylvester_options(p) -> None:
    p.add_argument("--count", type=_int_arg(1, MAX_COUNT), required=True)


def _limit_options(p) -> None:
    p.add_argument("--terms", type=_int_arg(), required=True)


def _witness_options(p) -> None:
    _add_params(p)
    _add_eps(p)


def _simulate_options(p) -> None:
    _add_params(p, required=False)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--items", help="path to a JSON array of \"p/q\" sizes")
    source.add_argument("--adversarial", type=_int_arg(), metavar="N", help="number of witness bundles")
    _add_eps(p)
    p.add_argument("--shuffle", type=_int_arg(), metavar="SEED", help="shuffle arrival order")


# name: (help, options, default --digits, handler), in the order the help
# lists them; a command whose default is None prints JSON only and takes
# neither --format nor --digits
_SUBCOMMANDS = {
    "eval": ("evaluate the payoff function at one size", _eval_options, 8, _cmd_eval),
    "ip-opt": ("optimal knapsack profit for (k, mu)", _ip_opt_options, 8, _cmd_ip_opt),
    "table": ("optimum per k under a slope family", _table_options, 8, _cmd_table),
    "sylvester": ("sequence terms and reciprocal prefix sums", _sylvester_options, 15, _cmd_sylvester),
    "limit": ("two-sided bracket on the limiting optimum", _limit_options, 15, _cmd_limit),
    "witness": ("near-optimal instance as JSON sizes", _witness_options, None, _cmd_witness),
    "simulate": ("run the online packer, result as JSON", _simulate_options, None, _cmd_simulate),
}


@functools.cache  # built once per process and command; parse_args leaves it unchanged
def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser with only command's subparser, or with all seven when command is None.

    A usage error's usage line lists all seven either way: a one-command
    parser gets the list as its metavar. The full parser gets none, since
    argparse would then name a missing or unknown command by the list in
    place of "command".
    """
    parser = _Parser(
        prog="harmonic-knapsack",
        description="Exact max-knapsack-profit of the size-classed harmonic "
        "payoff function, plus an online bin-packing simulator.",
    )
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    subs = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (help_text, add_options, digits, handler) in _SUBCOMMANDS.items():
        if command in (None, name):
            sub = subs.add_parser(name, help=help_text)
            add_options(sub)
            if digits is not None:
                sub.add_argument("--format", choices=["text", "csv", "json"], default="text")
                sub.add_argument("--digits", type=_int_arg(1, MAX_DIGITS), default=digits, help="decimal places")
            sub.set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    if sys.stdout is None:  # started with fd 1 closed: write into a pipe nobody reads
        read_end, write_end = os.pipe()
        os.close(read_end)
        sys.stdout = open(write_end, "w", closefd=False)
    argv = sys.argv[1:] if argv is None else list(argv)
    # --help, an unknown word or no word at all gets every subcommand
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
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
