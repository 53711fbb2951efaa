"""The package reads no environment knob, keeps no unbounded memo, and lays
out beads as mask bits in one module only."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gwbinom"
FORBIDDEN = re.compile(r"os\.environ|getenv|functools\.cache|from functools import .*\bcache\b|lru_cache")
BEAD_LAYOUT = re.compile(r"<<|>>|\.blues\b")


def _hits(pattern, exempt=()):
    return [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        if path.name not in exempt
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def test_no_env_knobs_or_memo_caches():
    assert _hits(FORBIDDEN) == []


def test_bead_layout_stays_in_necklaces():
    # outside necklaces.py a necklace is handled as its word, never as bits
    assert _hits(BEAD_LAYOUT, exempt={"necklaces.py"}) == []
