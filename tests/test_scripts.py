"""The scripts under scripts/ run against the package root and print the
reference numbers; each is executed in-process as `python3 scripts/X.py`."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, capsys):
    with pytest.raises(SystemExit) as exc:
        runpy.run_path(str(SCRIPTS / name), run_name="__main__")
    return exc.value.code, capsys.readouterr().out


def test_reproduce_tables(capsys):
    code, out = run_script("reproduce_tables.py", capsys)
    assert code == 0
    assert "$ harmonic-knapsack limit --terms 10" in out
    assert "12  12/11  391/231  1.69264069" in out
    bracket = [line for line in out.splitlines() if line.startswith(("lower", "upper"))]
    assert len(bracket) == 2
    assert all(line.endswith(" = 1.691030206757254") for line in bracket)


def test_adversarial_ratio(capsys):
    code, out = run_script("adversarial_ratio.py", capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "closed-form optimum: 391/231 = 1.69264069"
    assert len(lines) == 8
    assert lines[-1].split()[0] == "3000"
