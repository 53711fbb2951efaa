"""Golden digest of the CLI transcript.

Every case below is run in-process through ``main``; the digest covers
``argv | exit code | stdout | stderr`` for each, in order.  Timings in
the verify output are masked (every ``\\d+\\.\\d+s?``, and any float
that ``json`` writes in exponent form).

Both digests were computed with the code as it stood before the CLI's
per-format branches were folded into one renderer, before ``cli.py``
was touched.  They pin the text, JSON and CSV renderings of every
subcommand, the disagreement output with its exit code 1, and the usage
errors' exit codes and messages, byte for byte.
"""

import contextlib
import hashlib
import io
import re

import pytest

from gwbinom.cli import main
from gwbinom.coefficients import EnrichedCoefficient
from gwbinom.gw import GWElem

FORMATS = ("text", "json", "csv")

RENDERED = [
    ("coeff", "--n", "8", "--j", "3"),
    ("coeff", "--n", "8", "--j", "3", "--oracle"),
    ("coeff", "--twisted", "--j", "4", "--oracle"),
    ("coeff", "--n", "0", "--j", "0"),
    ("triangle", "--rows", "12"),
    ("twisted", "--max-j", "9"),
    ("twisted", "--max-j", "6", "--oracle"),
    ("necklaces", "--n", "8", "--j", "4"),
    ("necklaces", "--n", "6", "--j", "4", "--classify"),
    ("necklaces", "--n", "5", "--j", "0"),
]

VERIFY = ("verify", "--max-n", "8", "--twisted-max-j", "4")

USAGE_ERRORS = [
    ("coeff", "--n", "3", "--j", "5"),
    ("coeff", "--j", "2"),
    ("coeff", "--twisted", "--n", "5", "--j", "4"),
    ("necklaces", "--n", "5", "--j", "2", "--classify"),
    ("twisted", "--max-j", "0"),
    ("triangle", "--rows", "0"),
    ("verify", "--max-n", "2", "--twisted-max-j", "1", "--jobs", "0"),
    ("--q", "8", "triangle", "--rows", "2"),
]

DIVERGENT = [
    ("coeff", "--n", "8", "--j", "3", "--oracle"),
    ("coeff", "--twisted", "--j", "4", "--oracle"),
    ("twisted", "--max-j", "5", "--oracle"),
]

TRANSCRIPT_SHA256 = "b4b09571b2d117d74f26af6f47c5ef7c994fafd70aa633bcb7a2c9fbbdde20ab"

DIVERGENT_SHA256 = "89b3942b15cfa76bc6deb6ec6234290a7c6ab525f3de0ef87f32bcb03e03b30d"

# sha256 of `triangle --rows 300 --format json`: TRIANGLE_SHA256 in the
# benchmark's bench/workloads.py, pinned when the benchmark was introduced
TRIANGLE_300_SHA256 = "fb1799fa0cb13323fe6b53d8c66ffa48de211c95a5377235d11a4056f1967e7e"

# sha256 of `necklaces --n 22 --j 11 --classify --format json`: CATALOG_SHA256
# in the benchmark's bench/workloads.py, pinned when the benchmark was introduced
CATALOG_22_SHA256 = "b7ce49a837a6c3d63635c685ef395696f9e1672a5dcbd9f091b6b511032a535e"

# sha256 of `verify --max-n 20 --twisted-max-j 11` as JSON and as text, timings
# masked by _TIMING: the benchmark's verify-sweep workload (VERIFY_ARGV in
# bench/workloads.py), whose 242 cells give its VERIFY_DIGEST
VERIFY_20_SHA256 = {
    "json": "7a55e628b84558cbd9e3e841656f9832104d292a720d5ac5abfcaf45894cde4b",
    "text": "f756cf58b34c4453abfe6cecdfcdc2a8536b787cba2cd45739c8e9185efe2187",
}

# the largest row of the 300-row triangle is about 74 KB of JSON
MAX_WRITE = 2**20

_TIMING = re.compile(r"\d+(?:\.\d+)?e-\d+|\d+\.\d+s?")


def _cases():
    for argv in RENDERED:
        for fmt in FORMATS:
            yield (*argv, "--format", fmt), False
    for fmt in ("text", "json"):
        yield (*VERIFY, "--format", fmt), True
    for argv in USAGE_ERRORS:
        yield argv, False


def _transcript(cases) -> str:
    parts = []
    for argv, masked in cases:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
        stdout = out.getvalue()
        if masked:
            stdout = _TIMING.sub("#", stdout)
        parts.append(f"{' '.join(argv)}|{code}|{stdout}|{err.getvalue()}")
    return "\n".join(parts)


def test_cli_transcript_digest():
    assert hashlib.sha256(_transcript(_cases()).encode()).hexdigest() == TRANSCRIPT_SHA256


def test_cli_divergence_transcript_digest(monkeypatch):
    """An oracle that is off by one square class at (8, 3) and at j = 4
    exercises the disagreement lines and exit code 1 in every format."""
    import gwbinom.cli as cli

    def off(real, at):
        def wrapped(*args):
            c = real(*args)
            if args != at:
                return c
            return EnrichedCoefficient(c.n, c.j, c.twisted, c.value + GWElem(0, 1), c.method)
        return wrapped

    monkeypatch.setattr(cli, "untwisted_oracle", off(cli.untwisted_oracle, (8, 3)))
    monkeypatch.setattr(cli, "twisted_oracle", off(cli.twisted_oracle, (4,)))
    cases = [((*argv, "--format", fmt), False) for argv in DIVERGENT for fmt in FORMATS]
    assert hashlib.sha256(_transcript(cases).encode()).hexdigest() == DIVERGENT_SHA256


class _Writes(io.StringIO):
    """A stdout that records the size of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, s):
        self.sizes.append(len(s))
        return super().write(s)


def _streamed_digest(argv) -> str:
    """sha256 of main(argv)'s stdout, which must exit 0 and come in writes
    of at most MAX_WRITE characters: no whole document is held as one string."""
    out = _Writes()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert len(out.sizes) > 1 and max(out.sizes) <= MAX_WRITE
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def test_full_size_triangle_json_digest():
    argv = ["triangle", "--rows", "300", "--format", "json"]
    assert _streamed_digest(argv) == TRIANGLE_300_SHA256


def test_catalog_22_json_digest():
    argv = ["necklaces", "--n", "22", "--j", "11", "--classify", "--format", "json"]
    assert _streamed_digest(argv) == CATALOG_22_SHA256


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_verify_sweep_digest(fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["verify", "--max-n", "20", "--twisted-max-j", "11", "--format", fmt]) == 0
    masked = _TIMING.sub("#", out.getvalue()).encode()
    assert hashlib.sha256(masked).hexdigest() == VERIFY_20_SHA256[fmt]
