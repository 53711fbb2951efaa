import re
from pathlib import Path

from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=200)
settings.load_profile("suite")

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def script_entry() -> str:
    """The "module:function" that pyproject.toml's [project.scripts] gwbinom
    names, read by tomllib, or from its one line by a regex where tomllib is
    missing (Python 3.10)."""
    text = PYPROJECT.read_text()
    try:
        import tomllib
    except ImportError:
        return re.search(r'^gwbinom\s*=\s*"([^"]*)"', text, re.M).group(1)
    return tomllib.loads(text)["project"]["scripts"]["gwbinom"]


def valuation(p: int, x: int) -> int:
    """The largest e with p^e dividing x >= 1, by repeated division: the
    reference that tests compare kummer_valuation against."""
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e
