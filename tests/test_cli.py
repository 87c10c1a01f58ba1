import argparse
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from harmonic_knapsack.harmonic import KnapsackInstance
from harmonic_knapsack.cli import parse_rational_arg, run
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


def test_eval_text(capsys):
    assert run(["eval", "--k", "4", "--mu", "4/3", "--x", "2/7"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith("1/3")
    assert out == "1/3 = 0.33333333"


def test_eval_domain_error(capsys):
    assert run(["eval", "--k", "4", "--mu", "4/3", "--x", "3/2"]) == 1
    assert "error" in capsys.readouterr().err


def test_usage_errors(capsys):
    assert run(["no-such-command"]) == 2
    assert run(["eval", "--k", "4", "--mu", "4/3"]) == 2  # missing --x
    assert run(["eval", "--k", "4", "--x", "1/2"]) == 2  # neither mu nor family
    assert run(["ip-opt", "--k", "4", "--mu", "4/3", "--family", "lee"]) == 2
    assert run(["eval", "--k", "4", "--mu", "1/0", "--x", "1/2"]) == 2
    capsys.readouterr()
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
    ):
        assert run(argv) == 2
        assert message in capsys.readouterr().err
    assert run(["limit", "--terms", "12", "--digits", "4300"]) == 0
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


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


def test_brute_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("HARMONIC_BRUTE_CAP", "3")
    assert run(["ip-opt", "--k", "5", "--mu", "1/2", "--method", "brute"]) == 1
    assert "cap" in capsys.readouterr().err
    monkeypatch.setenv("HARMONIC_BRUTE_CAP", "16")
    assert run(["ip-opt", "--k", "15", "--mu", "15/14", "--method", "brute"]) == 0
    assert "opt = 995/588" in capsys.readouterr().out
    monkeypatch.setenv("HARMONIC_BRUTE_CAP", "abc")
    assert run(["ip-opt", "--k", "5", "--mu", "1/2"]) == 2
    assert "HARMONIC_BRUTE_CAP must be an integer" in capsys.readouterr().err


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


def test_witness_roundtrip(capsys):
    assert run(["witness", "--k", "4", "--mu", "4/3", "--eps", "1/100"]) == 0
    inst = KnapsackInstance.from_json(capsys.readouterr().out)
    assert inst.total() == 1
    assert inst.items == (F(101, 200), F(101, 300), F(19, 120))


def test_witness_clamps_eps(capsys):
    # greedy counts for k=10 cost 41/42, so eps clamps from 1/10 to 1/41
    assert run(["witness", "--k", "10", "--family", "lee", "--eps", "1/10"]) == 0
    inst = KnapsackInstance.from_json(capsys.readouterr().out)
    assert inst.total() == 1
    assert F(42, 41) / 2 in inst.items


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
    bundle = KnapsackInstance.from_json(capsys.readouterr().out)
    assert bundle.items[0] == F(6, 5) / 2
    assert run(["simulate", *args, "--adversarial", "5"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["num_items"] == 5 * len(bundle)
    assert data["opt_lower_bound"] == 5


def test_simulate_items_file(tmp_path, capsys):
    path = tmp_path / "items.json"
    path.write_text(KnapsackInstance((F(3, 5), F(3, 5), F(3, 10), F(3, 10), F(3, 10))).to_json())
    assert run(["simulate", "--k", "3", "--mu", "3/2", "--items", str(path)]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["bins_used"] == 3
    assert data["per_class_bins"] == {"1": 2, "3": 1}
    assert data["ratio"] == {"num": "1", "den": "1"}


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


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "harmonic_knapsack", "eval", "--k", "4", "--mu", "4/3", "--x", "2/7"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("1/3")
