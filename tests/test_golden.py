"""The CLI's output still matches the digests committed in tools/golden.json.

Runs the groups of tools/golden.py's grid for which golden.quick holds;
CI runs the whole grid with `python tools/golden.py`.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import golden


def test_quick_groups_match_committed_digests():
    names = [name for name in golden.grid() if golden.quick(name)]
    assert len(names) == 40
    bad = golden.mismatches(names)
    assert not bad, f"output differs from tools/golden.json in: {', '.join(bad)}"
