"""The package reads no environment knob and keeps no unbounded memo."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "gwbinom"
FORBIDDEN = re.compile(r"os\.environ|getenv|functools\.cache|from functools import .*\bcache\b|lru_cache")


def test_no_env_knobs_or_memo_caches():
    hits = [
        f"{path.name}:{i}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if FORBIDDEN.search(line)
    ]
    assert hits == []
