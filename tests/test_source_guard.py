"""The package reads no environment knob, keeps no unbounded memo, lays out
beads as mask bits in one module only, and re-exports nothing."""

import ast
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


def test_package_init_is_only_its_docstring():
    # each name is imported from the module that defines it, by one path
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert ast.get_docstring(tree) and len(tree.body) == 1
