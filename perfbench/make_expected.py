"""Regenerate the benchmark's expected outputs from the code in src/.

    python3 perfbench/make_expected.py

Writes expected/optimum.json (opt, lexicographically smallest argmax and
8-place decimal for every query in the optimum pool, from solve_brute) and
expected/cli.json (sha256 of each cli command's stdout). Rerun it only when
the program's correct output changes on purpose.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True
SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))
os.environ.update(PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
os.environ.pop("HARMONIC_BRUTE_CAP", None)

from worker import EXPECTED, HERE, Cli, Optimum, run_cli_subprocess, write_sizes  # noqa: E402


def optimum_rows():
    from harmonic_knapsack import exactnum, harmonic, ip_model

    rows = []
    for k, mu in Optimum.pool():
        report = ip_model.solve_brute(harmonic.HarmonicParams(k, mu))
        rows.append(
            {
                "k": k,
                "mu": str(mu),
                "opt": str(report.opt),
                "argmax": list(report.argmax),
                "decimal": exactnum.to_decimal(report.opt, Optimum.DIGITS),
            }
        )
    return rows


def cli_golden():
    golden = {}
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        os.chdir(tmp)
        write_sizes(Path(tmp) / "sizes.json")
        for line, _ in Cli.COMMANDS:
            code, stdout = run_cli_subprocess(Cli.argv(line))
            if code != 0:
                raise SystemExit(f"{line!r} exited with {code}")
            golden[line] = hashlib.sha256(stdout).hexdigest()
        os.chdir(HERE)
    return golden


def main():
    EXPECTED.mkdir(exist_ok=True)
    rows = ",\n".join(json.dumps(row) for row in optimum_rows())
    (EXPECTED / "optimum.json").write_text('{"rows": [\n' + rows + "\n]}\n")
    (EXPECTED / "cli.json").write_text(json.dumps(cli_golden(), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
