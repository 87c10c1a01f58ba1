import argparse
import contextlib
import io
import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harmonic_knapsack import cli
from harmonic_knapsack.cli import parse_rational_arg, parse_sizes, run
from reference_values import LIMIT_15, SEQUENCE_FIRST_SEVEN, TABLE_DECIMALS, TABLE_OPT

F = Fraction


def test_parse_rational_arg():
    assert parse_rational_arg("4/3") == F(4, 3)
    assert parse_rational_arg("1.75") == F(7, 4)
    assert parse_rational_arg("2") == F(2)
    with pytest.raises(argparse.ArgumentTypeError):
        parse_rational_arg("abc")
    with pytest.raises(argparse.ArgumentTypeError):
        parse_rational_arg("1/0")
    # one ASCII grammar on every Python: blanks only around the text, no
    # underscores, no digits or blanks from outside ASCII
    for text, value in ((" 1/2 ", F(1, 2)), ("\t2\n", F(2)), ("1.", F(1)), (".5", F(1, 2)), ("-.5e1", F(-5)),
                        ("+1/2", F(1, 2)), ("1E3", F(1000))):
        assert parse_rational_arg(text) == value
    for text in ("1_0/3", "1e1_0", "1/ 2", "1 /2", "٣/9", "１/2", "\xa01/2", "1/2\u2003",
                 "", ".", "/2", "1/2e3", "e99999"):
        with pytest.raises(argparse.ArgumentTypeError, match="not a rational"):
            parse_rational_arg(text)
    # at most 4300 digits a side, checked before 10**exponent is built
    assert parse_rational_arg("1e4299") == 10**4299
    assert parse_rational_arg("100e-4301") == F(1, 10**4299)
    for text in ("1e4300", "1e-4300", "1.5e-4300", "1e-300000", "1" * 4301):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_rational_arg(text)
    # runs of digits that CPython's int parser refuses, not bad syntax
    for text in ("7" * 4301, "1/" + "7" * 4301, "0." + "0" * 4400 + "1"):
        with pytest.raises(argparse.ArgumentTypeError, match="more than 4300 digits"):
            parse_rational_arg(text)
    # without the exponent check this builds a 3,000,001-digit denominator
    start = time.perf_counter()
    with pytest.raises(argparse.ArgumentTypeError):
        parse_rational_arg("-2e-3000000")
    assert time.perf_counter() - start < 0.5


def test_parse_sizes():
    assert parse_sizes('["1/2", "1/3", "1", "0.25", "0"]') == (F(1, 2), F(1, 3), F(1), F(1, 4), F(0))
    assert parse_sizes("[]") == ()
    # the range is harmonic_pack's to check; parsing keeps any rational
    assert parse_sizes('["3/2", "-1/3"]') == (F(3, 2), F(-1, 3))
    for text in ("{}", '"1/2"', "[1, 2]", '[["1/2"]]', "[" * 100_000, "not json", "", "[" + "1" * 5000 + "]"):
        with pytest.raises(ValueError, match=re.escape('expected a JSON array of "p/q" strings')):
            parse_sizes(text)
    with pytest.raises(ValueError, match="more than 4300 digits"):
        parse_sizes('["1e-300000"]')
    with pytest.raises(ValueError, match="not a rational"):
        parse_sizes('["1/2", "half"]')


def test_eval_text(capsys):
    assert run(["eval", "--k", "4", "--mu", "4/3", "--x", "2/7"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("1/3")
    assert out == "1/3 = 0.33333333"


def test_eval_domain_error(capsys):
    assert run(["eval", "--k", "4", "--mu", "4/3", "--x", "3/2"]) == 1
    assert "error" in capsys.readouterr().err
    # an explicit count vector has k - 1 entries, so its k is bounded; the
    # closed form never builds one
    huge = str(10**30)
    for argv in (
        ["witness", "--k", huge, "--family", "lee"],
        ["witness", "--k", huge, "--mu", "3"],
        ["ip-opt", "--k", huge, "--mu", "3/2", "--method", "greedy"],
        ["simulate", "--k", huge, "--adversarial", "1"],
        ["ip-opt", "--k", huge, "--mu", "1/2"],
    ):
        assert run(argv) == 1
        assert "error: k is above 10000," in capsys.readouterr().err
    assert run(["ip-opt", "--k", huge, "--mu", "3/2"]) == 0
    assert "method = closed" in capsys.readouterr().out
    # the closed form's advice holds for --method as well as for solve()
    assert run(["ip-opt", "--k", "3", "--mu", "1/2", "--method", "closed"]) == 1
    assert capsys.readouterr().err == "error: no closed form for k >= 2 with mu < 1; use method auto\n"
    # 10**30 bundles of 3 items are refused before the instance is built
    assert run(["simulate", "--k", "3", "--mu", "3/2", "--adversarial", huge]) == 1
    assert "exceed 100000 items" in capsys.readouterr().err
    # a negative rational as a separate word reaches the same value check as
    # after "=", although argparse alone reads "-1/3" and "-1e3" as options
    for head, option, message in (
        (["eval", "--k", "3", "--x", "1/2"], "--mu", "mu must lie in [0, k]"),
        (["eval", "--k", "3", "--mu", "1/2"], "--x", "x must lie in [0, 1]"),
        (["witness", "--k", "4", "--mu", "1"], "--eps", "eps must be positive"),
    ):
        for value in ("-1/3", "-1e3"):
            for words in ([option, value], [f"{option}={value}"]):
                assert run(head + words) == 1
                assert capsys.readouterr().err == f"error: {message}\n"


# Integer options given a value far beyond any bound: 2,501 digits still
# parse as an int, 5,000 exceed CPython's 4,300-digit conversion limit.
HUGE = [str(10**2500), "9" * 5000, "-" + "9" * 5000]
HUGE_OPTIONS = [
    "limit --terms N",
    "limit --terms 3 --digits N",
    "sylvester --count N",
    "eval --k 4 --mu 4/3 --x 1/2 --digits N",
    "eval --k N --mu 1 --x 1/2",
    "table --family lee --k-min N --k-max 3",
    "table --family lee --k-min 3 --k-max N",
    "simulate --k 3 --adversarial N",
    "simulate --k 3 --adversarial 2 --shuffle N",
]


@pytest.mark.parametrize("line", HUGE_OPTIONS)
def test_huge_integers_get_a_short_message(line, capsys):
    # any seed that converts to an int is valid, so --shuffle is only given the longer values
    for value in HUGE[1:] if "--shuffle" in line else HUGE:
        code = run([value if word == "N" else word for word in line.split()])
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert 0 < len(err) < 1024
        assert value.lstrip("-")[:100] not in err


# Values within an option's digit bound that the library refuses, rationals
# one digit beyond it, and rationals within it whose result has more digits
# than CPython prints: the message names the bound, not the value.
SEVENS, K_SEVENS, TINY = "7" * 4300, "7" * 1300, "1/1" + "0" * 4299
HUGE_VALUES = {
    "eval --k 3 --mu N --x 1/2": [SEVENS, "7" * 4301, "-" + SEVENS],
    "ip-opt --k 3 --mu N --method closed": ["1/" + SEVENS],
    "eval --k 3 --mu 1 --x N": [SEVENS, "-1/" + SEVENS, "1/" + "7" * 4301],
    "witness --k 4 --mu 1 --eps N": ["-" + SEVENS, "7" * 4301],
    "simulate --k 3 --items N": [SEVENS, "-1/" + SEVENS, "7" * 4301],
    "eval --k N --mu 1 --x 1/2": ["-" + K_SEVENS],
    "witness --k N --mu 1": [K_SEVENS],
    "ip-opt --k N --mu 1/2": [K_SEVENS],
    "ip-opt --k N --family lee": ["-" + K_SEVENS],
    "ip-opt --k 14 --mu N": [TINY],
    "eval --k 2 --mu N --x N": [TINY],
    "witness --k 100 --family lee --eps N": [TINY],
}


@pytest.mark.parametrize("line", HUGE_VALUES)
def test_huge_values_get_a_short_message(line, tmp_path, capsys):
    path = tmp_path / "items.json"
    for value in HUGE_VALUES[line]:
        path.write_text(json.dumps(["1/2", value]))
        arg = str(path) if "--items" in line else value
        code = run([arg if word == "N" else word for word in line.split()])
        err = capsys.readouterr().err
        assert code in (1, 2)
        assert 0 < len(err) < 1024
        assert value.lstrip("-")[:100] not in err
        assert "set_int_max_str_digits" not in err


def test_import_leaves_heavy_modules_unloaded():
    # start-up is most of a typical call; dataclasses alone pulls in inspect,
    # ast, dis and tokenize. The modules new to sys.modules are compared, so
    # whatever the interpreter loaded before the import does not count. cli
    # imports json only where it reads --items or prints JSON.
    heavy = {"dataclasses", "inspect", "ast", "dis", "csv", "json"}
    for module in ("harmonic_knapsack.cli", "harmonic_knapsack"):
        code = (
            f"import sys; before = set(sys.modules); import {module}; "
            "print(*sorted(set(sys.modules) - before))"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        loaded = set(proc.stdout.split())
        assert module in loaded
        assert not loaded & heavy, module


def test_text_commands_leave_json_unloaded():
    # a fresh process that prints text, a usage error and the help never
    # imports json; the JSON command after them does, so the check can fail
    text = [
        ["eval", "--k", "4", "--mu", "4/3", "--x", "2/7"],
        ["ip-opt", "--k", "10", "--mu", "80/71", "--explain", "--format", "csv"],
        ["table", "--family", "lee", "--k-min", "2", "--k-max", "5"],
        ["sylvester", "--count", "3"],
        ["limit", "--terms", "4"],
        ["witness", "--k", "4"],  # a usage error: no --mu or --family
        ["--help"],
    ]
    code = (
        "import sys; before = set(sys.modules); from harmonic_knapsack.cli import run\n"
        f"for argv in {text!r}: run(argv)\n"
        "print('json' in set(sys.modules) - before, file=sys.stderr)\n"
        "run(['sylvester', '--count', '3', '--format', 'json'])\n"
        "print('json' in set(sys.modules) - before, file=sys.stderr)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stderr.splitlines()[-2:] == ["False", "True"], proc.stderr


def test_usage_errors(capsys):
    assert run(["no-such-command"]) == 2
    assert run(["eval", "--k", "4", "--mu", "4/3"]) == 2  # missing --x
    assert run(["eval", "--k", "4", "--x", "1/2"]) == 2  # neither mu nor family
    assert run(["ip-opt", "--k", "4", "--mu", "4/3", "--family", "lee"]) == 2
    assert run(["eval", "--k", "4", "--mu", "1/0", "--x", "1/2"]) == 2
    capsys.readouterr()
    for argv in (
        ["ip-opt", "--k", "3", "--mu", "1e-300000"],
        ["eval", "--k", "3", "--mu", "1", "--x", "1e-5000"],
        ["witness", "--k", "3", "--mu", "1", "--eps", "1e-5000"],
    ):
        assert run(argv) == 2
        assert "has more than 4300 digits" in capsys.readouterr().err
    for argv in (
        ["ip-opt", "--k", "4", "--mu", "4/3", "--digits", "0"],
        ["eval", "--k", "4", "--mu", "4/3", "--x", "2/7", "--digits", "-3"],
        ["limit", "--terms", "3", "--digits", "0"],
    ):
        assert run(argv) == 2
        assert "--digits: must be >= 1" in capsys.readouterr().err
    # 4300 places is the most CPython prints; an unbounded count or place
    # number would run for minutes before failing at print time
    for argv, message in (
        (["limit", "--terms", "12", "--digits", "5000"], "--digits: must be <= 4300"),
        (["ip-opt", "--k", "10", "--mu", "80/71", "--digits", "5000"], "--digits: must be <= 4300"),
        (["eval", "--k", "4", "--mu", "4/3", "--x", "2/7", "--digits", "1000000000"], "--digits: must be <= 4300"),
        (["sylvester", "--count", "0"], "--count: must be >= 1"),
        (["sylvester", "--count", "16"], "--count: must be <= 15"),
        (["sylvester", "--count", "24"], "--count: must be <= 15"),
        (["limit", "--terms", "1.5"], "--terms: not an integer"),
        (["ip-opt", "--k", "1_0", "--mu", "1/2"], "--k: not an integer"),
        (["ip-opt", "--k", "٤", "--mu", "1/2"], "--k: not an integer"),
        (["eval", "--k", "4", "--mu", "1_0/3", "--x", "1/2"], "--mu: not a rational"),
    ):
        assert run(argv) == 2
        assert message in capsys.readouterr().err
    assert run(["limit", "--terms", "12", "--digits", "4300"]) == 0
    capsys.readouterr()
    assert run(["ip-opt", "--k", " 4 ", "--mu", "1/2"]) == 0
    assert capsys.readouterr().out.startswith("opt = 19/12 = ")
    # a table has k >= 1 and between 1 and 1000 rows, refused before any work
    for argv, message in (
        (["--k-min", "0", "--k-max", "3"], "--k-min: must be >= 1"),
        (["--k-min", "4", "--k-max", "3"], "--k-max must be >= --k-min"),
        (["--k-min", "1", "--k-max", "1001"], "at most 1000 rows"),
        (["--k-min", "2", "--k-max", str(10**8)], "at most 1000 rows"),
    ):
        assert run(["table", "--family", "lee", *argv]) == 2
        assert message in capsys.readouterr().err
    assert run(["table", "--family", "lee", "--k-min", "1", "--k-max", "1000", "--format", "csv"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1001
    # every family's optimum still prints at the largest k of 1300 digits;
    # a longer k is refused before any work
    largest, too_long = str(10**1300 - 1), str(10**1300)
    for family in ("lee", "caprara", "refined"):
        assert run(["ip-opt", "--k", largest, "--family", family, "--explain", "--format", "json"]) == 0
        assert run(["table", "--family", family, "--k-min", str(10**1300 - 3), "--k-max", largest]) == 0
    capsys.readouterr()
    for argv in (
        ["ip-opt", "--k", too_long, "--family", "lee"],
        ["eval", "--k", "-" + too_long, "--mu", "1", "--x", "1/2"],
        ["table", "--family", "lee", "--k-min", too_long, "--k-max", too_long],
        ["table", "--family", "lee", "--k-min", "1", "--k-max", too_long],
        ["simulate", "--k", too_long, "--adversarial", "1"],
    ):
        assert run(argv) == 2
        assert "must have at most 1300 digits" in capsys.readouterr().err


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


# One valid call per subcommand, the word after the subcommand an option
# and the next its value; test_help_and_usage_match_the_full_parser derives
# its cases from these.
VALID = {
    "eval": ["eval", "--k", "4", "--mu", "4/3", "--x", "2/7"],
    "ip-opt": ["ip-opt", "--k", "4", "--mu", "4/3"],
    "table": ["table", "--family", "lee", "--k-min", "2", "--k-max", "4"],
    "sylvester": ["sylvester", "--count", "3"],
    "limit": ["limit", "--terms", "4"],
    "witness": ["witness", "--k", "4", "--mu", "4/3"],
    "simulate": ["simulate", "--k", "3", "--mu", "3/2", "--adversarial", "1"],
}
JSON_ONLY = ("witness", "simulate")
USAGE_CASES = [
    case
    for name, valid in VALID.items()
    for case in (
        [name, "--help"],
        [name],  # every subcommand has a required option
        [*valid[:2], "x", *valid[3:]],  # a bad value
        [*valid, "--no-such-option"],
        [*valid, "extra"],
        *([[*valid, "--family", "lee"]] if "--mu" in valid else []),  # a --mu/--family conflict
        *([[*valid, "--format", "json"]] if name in JSON_ONLY else []),
    )
] + [
    ["table", "--family", "lee", "--k-min", "4", "--k-max", "3"],
    ["table", "--family", "lee", "--k-min", "1", "--k-max", "1001"],
    [*VALID["ip-opt"], "--method", "bnb"],
    [], ["--help"], ["no-such-command"],
]


def test_help_and_usage_match_the_full_parser(monkeypatch, capsys):
    # run builds only the subparser its first word names; the help and
    # every usage error must read as if all seven were built
    monkeypatch.setenv("COLUMNS", "80")
    built = []
    for argv in USAGE_CASES:
        code = run(argv)
        built.append((code, *capsys.readouterr()))
    full = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full)
    for argv, (code, out, err) in zip(USAGE_CASES, built):
        assert run(argv) == code, argv
        assert capsys.readouterr() == (out, err), argv
        assert code == (0 if "--help" in argv else 2), argv
    # argparse names a missing or unknown command by the subparsers' metavar
    # where one is set, so the full parser must leave it unset
    assert built[USAGE_CASES.index([])][2].endswith("the following arguments are required: command\n")
    assert "argument command: invalid choice" in built[USAGE_CASES.index(["no-such-command"])][2]


def test_every_option_reads_a_negative_looking_word_as_its_value(monkeypatch, capsys):
    # one rule for every option that takes a value, read off the parser: a
    # separate word that starts with "-" and then a digit or "." reads as it
    # does after "=", although argparse alone reads "-1e3" as an option
    monkeypatch.setenv("COLUMNS", "80")
    subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    checked = set()
    for name, sub in subparsers.choices.items():
        valid = VALID[name]
        for option in (a.option_strings[-1] for a in sub._actions if a.option_strings and a.nargs != 0):
            # the option's value in the valid call is replaced; any other option is added
            at = valid.index(option) if option in valid else len(valid)
            for value in ("-1e3", "-1/3", "-.5e1"):
                results = []
                for words in ([option, value], [f"{option}={value}"]):
                    code = run([*valid[:at], *words, *valid[at + 2:]])
                    results.append((code, *capsys.readouterr()))
                assert results[0] == results[1], (name, option, value)
                assert code in (1, 2), (name, option, value)
            checked.add((name, option))
    assert len(checked) == 34


def test_method_choices_are_auto_and_the_routes(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(["ip-opt", "--help"]) == 0
    assert "--method {auto,brute,closed,greedy}" in capsys.readouterr().out


def test_subcommand_table_decides_formats_and_places(monkeypatch, capsys):
    # each row of the subcommand table declares its help and whether the
    # command takes --format and --digits, with its default places
    monkeypatch.setenv("COLUMNS", "80")
    places = {"eval": 8, "ip-opt": 8, "table": 8, "sylvester": 15, "limit": 15}
    for name, digits in places.items():
        args = cli.build_parser(name).parse_args(VALID[name])
        assert (args.format, args.digits) == ("text", digits), name
        assert run([name, "--help"]) == 0
        assert "--format {text,csv,json}" in capsys.readouterr().out
        for fmt in ("text", "csv", "json"):
            assert run([*VALID[name], "--format", fmt]) == 0, (name, fmt)
            out = capsys.readouterr().out
            if fmt == "json":
                json.loads(out)
    for name in JSON_ONLY:
        assert run([name, "--help"]) == 0
        assert "--format" not in capsys.readouterr().out
        for extra in (["--format", "json"], ["--digits", "3"]):
            assert run([*VALID[name], *extra]) == 2, (name, extra)
            assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: {' '.join(extra)}\n")
    assert run(["--help"]) == 0
    listed = re.findall(r"^    (\S+) +(\S.*)$", capsys.readouterr().out, re.MULTILINE)
    assert listed == [
        ("eval", "evaluate the payoff function at one size"),
        ("ip-opt", "optimal knapsack profit for (k, mu)"),
        ("table", "optimum per k under a slope family"),
        ("sylvester", "sequence terms and reciprocal prefix sums"),
        ("limit", "two-sided bracket on the limiting optimum"),
        ("witness", "near-optimal instance as JSON sizes"),
        ("simulate", "run the online packer, result as JSON"),
    ]


def test_one_process_answers_like_fresh_ones(monkeypatch, capsys):
    # run builds each command's parser once per process; what one call
    # parses must not change what the next one prints or returns, whichever
    # subcommand it names
    monkeypatch.setenv("COLUMNS", "80")  # the help's line width, here and in each fresh process
    answer = ["ip-opt", "--k", "10", "--mu", "80/71", "--explain"]
    rows = ["table", "--family", "lee", "--k-min", "2", "--k-max", "4"]
    for argv in (
        ["eval", "--k", "4"], ["--help"], answer, rows, ["table", "--family", "lee", "--k-min", "4", "--k-max", "3"],
        ["sylvester", "--count", "3", "extra"], ["no-such-command"], rows, ["eval", "--k", "4"], answer, answer,
    ):
        code = run(argv)
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "harmonic_knapsack", *argv], capture_output=True, text=True)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert code == 0 and out.startswith("opt = 2525/1491 = ")


def test_ip_opt_brute_text(capsys):
    assert run(["ip-opt", "--k", "4", "--mu", "4/3", "--method", "brute"]) == 0
    out = capsys.readouterr().out
    assert "opt = 31/18 = 1.72222222" in out
    assert "method = brute" in out
    assert "argmax = (1, 1, 0)" in out
    assert "feasible_count = 12" in out


def test_ip_opt_auto_uses_closed_form(capsys):
    assert run(["ip-opt", "--k", "12", "--family", "lee"]) == 0
    out = capsys.readouterr().out
    assert "opt = 391/231" in out
    assert "method = closed" in out


def test_ip_opt_explain(capsys):
    assert run(["ip-opt", "--k", "10", "--mu", "80/71", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "m = 7" in out
    assert "Q = 3" in out
    assert "r[Q+1] = 42" in out
    assert "S[Q+1] = 71/42" in out
    # below mu = 1 the pieces exist although no closed form uses them
    assert run(["ip-opt", "--k", "5", "--mu", "1/2", "--explain"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-4:] == ["m = 4", "Q = 2", "r[Q+1] = 6", "S[Q+1] = 5/3 = 1.66666667"]
    assert run(["ip-opt", "--k", "1", "--mu", "1", "--explain"]) == 0
    assert "explain: m is undefined" in capsys.readouterr().out


def test_ip_opt_json(capsys):
    assert run(["ip-opt", "--k", "4", "--mu", "4/3", "--method", "brute", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["opt"] == {"num": "31", "den": "18"}
    assert data["argmax"] == [1, 1, 0]
    assert data["feasible_count"] == 12
    assert data["method"] == "brute"
    assert data["m"] == 2


def test_ip_opt_greedy(capsys):
    assert run(["ip-opt", "--k", "7", "--mu", "7/6", "--method", "greedy"]) == 0
    out = capsys.readouterr().out
    assert "opt = 61/36" in out
    assert "argmax = (1, 1, 0, 0, 0, 0)" in out


def test_brute_cap(capsys):
    assert run(["ip-opt", "--k", "15", "--mu", "15/14", "--method", "brute"]) == 1
    assert "exhaustive-search cap 14" in capsys.readouterr().err


def test_bnb_cap(capsys):
    assert run(["ip-opt", "--k", "10000", "--mu", "1/2"]) == 0
    assert "method = bnb" in capsys.readouterr().out
    assert run(["ip-opt", "--k", "10001", "--mu", "1/2"]) == 1
    assert capsys.readouterr().err == "error: k is above 10000, the largest k with an explicit count vector\n"


def test_table_matches_reference(capsys):
    for family, cells in TABLE_OPT.items():
        lo, hi = min(cells), max(cells)
        assert run(["table", "--family", family, "--k-min", str(lo), "--k-max", str(hi)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()[1:]
        assert len(lines) == hi - lo + 1
        for line, k in zip(lines, range(lo, hi + 1)):
            fields = line.split()
            assert fields[0] == str(k)
            assert fields[2] == str(cells[k])
            if k in TABLE_DECIMALS[family]:
                assert fields[3] == TABLE_DECIMALS[family][k]


def test_table_dashes_for_undefined_cells(capsys):
    assert run(["table", "--family", "caprara", "--k-min", "2", "--k-max", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    assert lines[0].split() == ["2", "--", "--", "--"]
    assert lines[1].split()[:3] == ["3", "3", "3"]
    # outside the table an undefined cell is an error, not an invented slope
    for cmd in (["ip-opt"], ["eval", "--x", "1/2"], ["witness"], ["simulate", "--adversarial", "3"]):
        assert run([*cmd, "--k", "1", "--family", "lee"]) == 1
        assert "family lee needs k >= 2" in capsys.readouterr().err


def test_table_csv(capsys):
    assert run(["table", "--family", "lee", "--k-min", "2", "--k-max", "4", "--format", "csv"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "k,mu,opt,decimal"
    assert lines[1] == "2,2,2,2.00000000"
    assert lines[3] == "4,4/3,31/18,1.72222222"


def test_table_json_deterministic(capsys):
    args = ["table", "--family", "refined", "--k-min", "3", "--k-max", "12", "--format", "json"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    second = capsys.readouterr().out
    assert first == second
    data = json.loads(first)
    assert data["rows"][7]["opt"] == {"num": "2525", "den": "1491"}


def test_sylvester_output(capsys):
    assert run(["sylvester", "--count", "7"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert [int(line.split()[1]) for line in lines] == SEQUENCE_FIRST_SEVEN
    assert lines[2].split()[2] == "5/3"


def test_sylvester_json(capsys):
    assert run(["sylvester", "--count", "7", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [int(r["r"]) for r in rows] == SEQUENCE_FIRST_SEVEN
    # 15 is the longest walk whose terms CPython still prints
    for fmt in ("text", "csv", "json"):
        assert run(["sylvester", "--count", "15", "--format", fmt]) == 0
        assert capsys.readouterr().err == ""


def test_limit_output(capsys):
    assert run(["limit", "--terms", "10"]) == 0
    out = capsys.readouterr().out
    assert out.count(LIMIT_15) == 2
    assert run(["limit", "--terms", "13"]) == 1
    capsys.readouterr()


def _frac(num, den):
    return {"num": str(num), "den": str(den)}


# One command per subcommand that has formats, with its exact stdout in
# text, CSV and JSON. The JSON is pinned as the object json.dumps renders
# with sorted keys and an indent of 2.
OUTPUT_GOLDENS = {
    "eval --k 4 --mu 4/3 --x 2/7": (
        "1/3 = 0.33333333\n",
        "value,decimal\n1/3,0.33333333\n",
        {"decimal": "0.33333333", "k": 4, "mu": _frac(4, 3), "value": _frac(1, 3), "x": _frac(2, 7)},
    ),
    "ip-opt --k 4 --mu 4/3 --method brute --explain": (
        "opt = 31/18 = 1.72222222\nmethod = brute\nargmax = (1, 1, 0)\nfeasible_count = 12\n"
        "m = 2\nQ = 2\nr[Q+1] = 6\nS[Q+1] = 5/3 = 1.66666667\n",
        "opt,decimal,method,argmax,feasible_count\n31/18,1.72222222,brute,1 1 0,12\n",
        {
            "argmax": [1, 1, 0], "decimal": "1.72222222", "feasible_count": 12, "k": 4, "m": 2,
            "method": "brute", "mu": _frac(4, 3), "nodes_visited": 24, "opt": _frac(31, 18), "q": 2,
            "r_next": "6", "s_next": _frac(5, 3),
        },
    ),
    "ip-opt --k 3 --mu 1/2": (
        "opt = 19/12 = 1.58333333\nmethod = bnb\nargmax = (1, 1)\n",
        "opt,decimal,method,argmax,feasible_count\n19/12,1.58333333,bnb,1 1,\n",
        {
            "argmax": [1, 1], "decimal": "1.58333333", "feasible_count": None, "k": 3, "m": 2,
            "method": "bnb", "mu": _frac(1, 2), "nodes_visited": None, "opt": _frac(19, 12), "q": 2,
            "r_next": "6", "s_next": _frac(5, 3),
        },
    ),
    "ip-opt --k 10 --mu 80/71 --method closed": (
        "opt = 2525/1491 = 1.69349430\nmethod = closed\n",
        "opt,decimal,method,argmax,feasible_count\n2525/1491,1.69349430,closed,,\n",
        {
            "argmax": None, "decimal": "1.69349430", "feasible_count": None, "k": 10, "m": 7,
            "method": "closed", "mu": _frac(80, 71), "nodes_visited": None, "opt": _frac(2525, 1491),
            "q": 3, "r_next": "42", "s_next": _frac(71, 42),
        },
    ),
    "table --family caprara --k-min 2 --k-max 4": (
        "k  mu  opt  decimal   \n2  --  --   --        \n3  3   3    3.00000000\n4  2   2    2.00000000\n",
        "k,mu,opt,decimal\n2,--,--,--\n3,3,3,3.00000000\n4,2,2,2.00000000\n",
        {
            "family": "caprara",
            "rows": [
                {"decimal": None, "k": 2, "mu": None, "opt": None},
                {"decimal": "3.00000000", "k": 3, "mu": _frac(3, 1), "opt": _frac(3, 1)},
                {"decimal": "2.00000000", "k": 4, "mu": _frac(2, 1), "opt": _frac(2, 1)},
            ],
        },
    ),
    "sylvester --count 3": (
        "1  1  1  1.000000000000000\n2  2  3/2  1.500000000000000\n3  6  5/3  1.666666666666667\n",
        "j,r,s,decimal\n1,1,1,1.000000000000000\n2,2,3/2,1.500000000000000\n3,6,5/3,1.666666666666667\n",
        {
            "rows": [
                {"decimal": "1.000000000000000", "j": 1, "r": "1", "s": _frac(1, 1)},
                {"decimal": "1.500000000000000", "j": 2, "r": "2", "s": _frac(3, 2)},
                {"decimal": "1.666666666666667", "j": 3, "r": "6", "s": _frac(5, 3)},
            ]
        },
    ),
    "limit --terms 3": (
        "terms = 3\nlower = 5/3 = 1.666666666666667\nupper = 31/18 = 1.722222222222222\n"
        "width = 1/18 = 0.055555555555556\n",
        "terms,lower,lower_decimal,upper,upper_decimal,width\n"
        "3,5/3,1.666666666666667,31/18,1.722222222222222,1/18\n",
        {
            "lower": _frac(5, 3), "lower_decimal": "1.666666666666667", "terms": 3, "upper": _frac(31, 18),
            "upper_decimal": "1.722222222222222", "width": _frac(1, 18),
        },
    ),
}


@pytest.mark.parametrize("line", OUTPUT_GOLDENS)
def test_output_goldens(line, capsys):
    text, csv_text, record = OUTPUT_GOLDENS[line]
    json_text = json.dumps(record, sort_keys=True, indent=2) + "\n"
    for fmt, expected in (("text", text), ("csv", csv_text), ("json", json_text)):
        assert run([*line.split(), "--format", fmt]) == 0
        assert capsys.readouterr() == (expected, ""), fmt
    # text is the default format
    assert run(line.split()) == 0
    assert capsys.readouterr().out == text


def test_witness_roundtrip(capsys):
    assert run(["witness", "--k", "4", "--mu", "4/3", "--eps", "1/100"]) == 0
    out = capsys.readouterr().out
    assert out == '["101/200", "101/300", "19/120"]\n'
    assert parse_sizes(out) == (F(101, 200), F(101, 300), F(19, 120))


def test_witness_clamps_eps(capsys):
    # greedy counts for k=10 cost 41/42, so eps clamps from 1/10 to 1/41
    assert run(["witness", "--k", "10", "--family", "lee", "--eps", "1/10"]) == 0
    sizes = parse_sizes(capsys.readouterr().out)
    assert sum(sizes) == 1
    assert F(42, 41) / 2 in sizes


def test_simulate_adversarial(capsys):
    assert run(
        ["simulate", "--k", "4", "--mu", "4/3", "--adversarial", "100", "--eps", "1/100"]
    ) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["opt_lower_bound"] == 100
    assert data["bins_used"] == sum(data["per_class_bins"].values())
    assert data["shuffle_seed"] is None


def test_simulate_adversarial_without_greedy(capsys):
    # k = 1 and mu >= 2 replay the all-zero witness: one bin per bundle
    assert run(["simulate", "--k", "1", "--adversarial", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["bins_used"] == 5
    assert run(["simulate", "--k", "4", "--mu", "5/2", "--adversarial", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["bins_used"] == 3


def test_simulate_clamps_eps_like_witness(capsys):
    # greedy counts for k=4, mu=4/3 cost 5/6, so eps clamps from 1/2 to 1/5
    args = ["--k", "4", "--mu", "4/3", "--eps", "1/2"]
    assert run(["witness", *args]) == 0
    bundle = parse_sizes(capsys.readouterr().out)
    assert bundle[0] == F(6, 5) / 2
    assert run(["simulate", *args, "--adversarial", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["num_items"] == 5 * len(bundle)
    assert data["opt_lower_bound"] == 5


def test_simulate_items_file(tmp_path, capsys):
    path = tmp_path / "items.json"
    path.write_text(json.dumps(["3/5", "3/5", "3/10", "3/10", "3/10"]))
    assert run(["simulate", "--k", "3", "--mu", "3/2", "--items", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bins_used"] == 3
    assert data["per_class_bins"] == {"1": 2, "3": 1}
    assert data["ratio"] == {"num": "1", "den": "1"}
    # a size from the file is bounded like a rational option, but it is a
    # domain error there
    for text in ("1e-300000", "0." + "0" * 4400 + "1"):
        path.write_text(json.dumps(["1/2", text]))
        assert run(["simulate", "--k", "3", "--items", str(path)]) == 1
        assert "has more than 4300 digits" in capsys.readouterr().err
    # the packer range-checks every size, whatever its source
    for text in ("3/2", "0", "-1/3"):
        path.write_text(json.dumps(["1/2", text]))
        assert run(["simulate", "--k", "3", "--items", str(path)]) == 1
        assert "item size outside (0, 1]" in capsys.readouterr().err
    # text that is not JSON, or is nested too deep for the JSON decoder, is a
    # malformed file like any other, not the decoder's message or a traceback
    for text in ("not json", "[" * 5000 + "]" * 5000):
        path.write_text(text)
        assert run(["simulate", "--k", "3", "--items", str(path)]) == 1
        assert capsys.readouterr().err == 'error: expected a JSON array of "p/q" strings\n'


def test_simulate_sorts_per_class_keys_as_strings(tmp_path, capsys):
    # classes 12, 1, 2, 11, 12, 1 at k = 12: harmonic_pack lists them in the
    # order they first open a bin, and the JSON output sorts keys as text
    path = tmp_path / "items.json"
    path.write_text(json.dumps(["1/20", "3/5", "2/5", "1/11", "1/13", "1"]))
    assert run(["simulate", "--k", "12", "--mu", "1", "--items", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert list(data["per_class_bins"]) == ["1", "11", "12", "2"]
    assert data["per_class_bins"] == {"1": 2, "11": 1, "12": 1, "2": 1}


def test_simulate_shuffle_is_seeded(capsys):
    args = ["simulate", "--k", "5", "--adversarial", "20", "--shuffle", "42"]
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    assert json.loads(first)["shuffle_seed"] == 42


def test_simulate_missing_file(capsys):
    assert run(["simulate", "--k", "3", "--items", "/no/such/file.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_items_file_is_read_up_to_a_bound(tmp_path, capsys):
    # a file of MAX_ITEMS_CHARS characters packs; a longer or endless one is
    # refused after reading one character past the bound
    bound = cli.MAX_ITEMS_CHARS
    path = tmp_path / "items.json"
    path.write_text('["1/2"' + " " * (bound - 7) + "]")
    assert run(["simulate", "--k", "3", "--items", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["num_items"] == 1
    path.write_text('["1/2"' + " " * (bound - 6) + "]")
    for name in (str(path), "/dev/zero"):
        start = time.perf_counter()
        assert run(["simulate", "--k", "3", "--items", name]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"error: an --items file may hold at most {bound} characters\n"


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "harmonic_knapsack", "eval", "--k", "4", "--mu", "4/3", "--x", "2/7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("1/3")


def test_closed_stdout_exits_one_quietly():
    # A reader that stops early (`... | head -c 10`) closes the pipe while
    # witness still has most of its 110,001 bytes to write. The other calls
    # are closed on before the interpreter is up, so on a buffered stdout
    # their few bytes fail only on the flush. None may print a message, then
    # or at interpreter exit.
    witness = ["witness", "--k", "10000", "--mu", "3"]
    sylvester = ["sylvester", "--count", "3"]
    for argv, keep, unbuffered in (
        (witness, 10, ""), (witness, 10, "1"), (sylvester, 0, ""), (sylvester, 0, "1"),
        (["--help"], 0, ""), (["--help"], 0, "1"), (["ip-opt", "--help"], 0, "1"),
    ):
        proc = subprocess.Popen(
            [sys.executable, "-m", "harmonic_knapsack", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
        assert len(proc.stdout.read(keep)) == keep
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (1, b""), (argv, unbuffered)
    # Started with fd 1 closed, sys.stdout is None: output exits 1 quietly,
    # and usage and domain errors still reach stderr with their own codes.
    for argv, code, message in (
        (witness, 1, ""), (sylvester, 1, ""), (["--help"], 1, ""), (["ip-opt", "--help"], 1, ""),
        (["eval", "--k", "2"], 2, "usage: harmonic-knapsack eval"),
        (["eval", "--k", "2", "--mu", "1", "--x", "9"], 1, "error: x must lie in [0, 1]\n"),
    ):
        proc = subprocess.run(
            ["/bin/sh", "-c", 'exec "$0" "$@" >&-', sys.executable, "-m", "harmonic_knapsack", *argv],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == code and proc.stderr.startswith(message), (argv, proc.stderr)
        assert bool(message) == bool(proc.stderr), (argv, proc.stderr)


# Option values for the fuzz test: edge cases, huge and malformed input. The
# pools keep every call short: no table range reaches past k = 12 except
# through a 2501-digit bound, which is refused.
INTS = ["0", "-1", "-1/3", "-1e3", "-.5e1", "1", "3", "12", str(10**30), str(10**2500), "1_0", "٤", " 4 "]
RATIONALS = [
    "0", "-1", "-1/3", "-1e3", "-.5e1", "1/2", "3/2", "3", "abc", "1/0", "1e-300000", "7" * 4301,
    "1/" + "3" * 4301, "1_0/3", "1/ 2", "٣/9", " 1/2 ",
]
EPS = ["1/100", "3", "1e-300000"]
# --items files by name, written once per session by items_dir; None is a
# path that does not exist
ITEM_FILES = {
    "sizes.json": '["1/2", "1/3", "2/7", "1"]',
    "three-halves.json": '["3/2"]',
    "zero.json": '["0"]',
    "not-strings.json": '[1, "1/2"]',
    "not-an-array.json": '{"sizes": ["1/2"]}',
    "long.json": '["1/' + "3" * 4301 + '"]',
    "deep.json": "[" * 5000 + "]" * 5000,
    "over-the-bound.json": "[" + " " * (cli.MAX_ITEMS_CHARS - 1) + "]",
    "missing.json": None,
}
SOURCES = [["--adversarial", n] for n in ("-1", "3", str(10**30))] + [["--items", name] for name in ITEM_FILES]
SLOPES = [[], ["--mu", "1/2"], ["--mu", "3"], ["--mu", "7" * 4301], ["--family", "lee"], ["--family", "caprara"]]
COMMANDS = {
    "eval": lambda pick: ["--k", pick(INTS), *pick(SLOPES), "--x", pick(RATIONALS), "--digits", pick(INTS)],
    "ip-opt": lambda pick: [
        "--k", pick(INTS), *pick(SLOPES), "--method", pick(["auto", "brute", "closed", "greedy"]),
        *pick([[], ["--explain"]]), "--format", pick(["text", "csv", "json"]),
    ],
    "table": lambda pick: [
        "--family", pick(["lee", "caprara", "refined"]),
        "--k-min", pick(["-1", "0", "1", "3", str(10**2500)]), "--k-max", pick(["0", "2", "12", str(10**2500)]),
    ],
    "sylvester": lambda pick: ["--count", pick(INTS)],
    "limit": lambda pick: ["--terms", pick(INTS), "--digits", pick(INTS)],
    "witness": lambda pick: ["--k", pick(INTS), *pick(SLOPES), "--eps", pick(EPS)],
    "simulate": lambda pick: [
        "--k", pick(INTS), *pick(SLOPES), *pick(SOURCES),
        "--eps", pick(EPS), *pick([[], ["--shuffle", "7"], ["--shuffle", "-1"]]),
    ],
}


@pytest.fixture(scope="session")
def items_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("items")
    for name, text in ITEM_FILES.items():
        if text is not None:
            (path / name).write_text(text)
    return path


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    return [command, *COMMANDS[command](lambda pool: draw(st.sampled_from(pool)))]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cli_argv())
@example(["simulate", "--k", "3", "--mu", "3/2", "--adversarial", str(10**30)])
@example(["simulate", "--k", "3", "--items", "long.json"])
@example(["ip-opt", "--k", "10000", "--mu", "1/2"])
@example(["ip-opt", "--k", "10001", "--mu", "1/2"])
@example(["ip-opt", "--k", "10000", "--mu", "1/1" + "0" * 4299])
def test_cli_fuzz_exits_cleanly_and_quickly(items_dir, argv):
    argv = [str(items_dir / word) if word in ITEM_FILES else word for word in argv]
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert time.perf_counter() - start < 2.0
