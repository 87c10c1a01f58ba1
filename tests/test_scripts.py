"""The scripts under scripts/ and the README examples run against the
package and print the reference numbers; each script is executed in-process
as `python3 scripts/X.py`, each README CLI line through cli.run."""

import json
import re
import runpy
from pathlib import Path

import pytest

from harmonic_knapsack.cli import run

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def readme_block(heading, language=""):
    """Body of the first fenced block under a README heading."""
    text = (ROOT / "README.md").read_text()
    section = text.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.DOTALL).group(1)


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


def test_readme_cli_lines_exit_zero(tmp_path, monkeypatch, capsys):
    # the file the README's `simulate --items sizes.json` line reads
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sizes.json").write_text(json.dumps([f"{p}/1009" for p in range(1, 1009, 5)]))
    lines = [line.split("#")[0].split() for line in readme_block("CLI").splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["harmonic-knapsack"]]
    assert len(commands) == 9
    for argv in commands:
        assert run(argv) == 0, argv
        assert capsys.readouterr().err == ""


def test_readme_library_example(capsys):
    exec(readme_block("Library", "python"), {})
    out = capsys.readouterr().out.splitlines()
    assert out == ["391/231", "1.691030206757254"]
