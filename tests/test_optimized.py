"""Invariant checks still run under ``python -O``.

Each check runs in a fresh ``python -O`` interpreter, where ``assert``
statements are stripped, so a check that relied on one would pass
silently here.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MOBIUS = """
import gwbinom.necklaces as necklaces
necklaces.mobius = lambda m: 1
try:
    necklaces.aperiodic_count(6, 3)
except RuntimeError as exc:
    print("raised", exc)
"""

BINOMIAL = """
import gwbinom.coefficients as coefficients
coefficients.big_binomial = lambda a, b: 1
report = coefficients.verify(8, 1)
bad = report.first_divergence()
print(report.ok, bad.twisted, bad.match)
print(next(line for line in report.render_text().splitlines() if "DIVERGENCE" in line))
"""

BOGUS_NECKLACE = """
import gwbinom.necklaces as necklaces
necklaces._necklaces = lambda n, j: iter([(0b0011, 3)])
try:
    necklaces.count_even_twisted_orbits(2)
except RuntimeError as exc:
    print("raised", exc)
"""

WRONG_PERIOD = """
import gwbinom.necklaces as necklaces
necklaces._necklaces = lambda n, j: iter([(0b1100, 2)])
try:
    necklaces.classify_flip_fixed(4, 2)
except RuntimeError as exc:
    print("raised", exc)
"""

RULES = """
from gwbinom.coefficients import untwisted_closed
from gwbinom.necklaces import Necklace, interleave_parts
for call in (lambda: untwisted_closed(3, 5), lambda: interleave_parts(Necklace(5, 0))):
    try:
        call()
    except ValueError as exc:
        print("raised", exc)
"""


def run_optimized(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-O", *argv], capture_output=True, text=True, env=env, timeout=60
    )


def test_wrong_mobius_raises_under_O():
    proc = run_optimized("-c", MOBIUS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised inversion sum 22 not divisible by 6")


def test_bogus_twisted_period_raises_under_O():
    # period 3 does not divide the 4 beads, so no twisted length can
    proc = run_optimized("-c", BOGUS_NECKLACE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised twisted length 3 does not divide 4")


def test_wrong_period_fails_the_reflection_check_under_O():
    # the word 0011 has period 4; read with period 2 its axis classes
    # would be m = 1 and m = 3, and r^3 f does not fix it
    proc = run_optimized("-c", WRONG_PERIOD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised reflection m=3 does not fix 0011 of period 2")


def test_wrong_binomial_route_fails_verify_under_O():
    proc = run_optimized("-c", BINOMIAL)
    assert proc.returncode == 0, proc.stderr
    flags, divergence = proc.stdout.splitlines()
    assert flags.split() == ["False", "False", "False"]
    # the line names the failing route without relying on assert
    assert divergence.startswith("DIVERGENCE at untwisted (n=0, j=0): closed=1 binomial=u oracle=1 ")


def test_cell_and_parity_rules_raise_under_O():
    proc = run_optimized("-c", RULES)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised need 0 <= j <= n, got j=5, n=3",
        "raised even size required, got 5",
    ]


def test_verify_cli_passes_under_O():
    proc = run_optimized("-m", "gwbinom", "verify", "--max-n", "6", "--twisted-max-j", "3")
    assert proc.returncode == 0, proc.stderr
    assert "VERIFY PASS" in proc.stdout
