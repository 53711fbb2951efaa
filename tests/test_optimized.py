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

MISREAD_WORD = """
import gwbinom.necklaces as necklaces
word = necklaces._word
necklaces._word = lambda mask, n: "00" if (mask, n) == (0b10, 2) else word(mask, n)
try:
    necklaces.count_even_twisted_orbits(1)
except RuntimeError as exc:
    print("raised", exc)
"""

WRONG_PERIOD = """
import gwbinom.necklaces as necklaces
necklaces._necklaces = lambda n, j: iter([(0b1100, 2)])
necklaces._flip_fixed_orbits = lambda n, j: [(0b1100, 2)]
try:
    necklaces.enumerate_orbits(4, 2)
except RuntimeError as exc:
    print("raised", exc)
"""

MIRROR_FAULTS = """
import gwbinom.necklaces as necklaces
words, walk = necklaces._mirror_words, necklaces._necklaces

def repeated(n, j):
    yield next(words(n, j))
    yield from words(n, j)

def skipping(n, j):
    return (pair for pair in walk(n, j) if pair != (0b000111, 6))

lister = necklaces._flip_fixed_orbits
faults = (("_mirror_words", repeated, words), ("_flip_fixed_orbits", lambda n, j: [(0b001011, 1)], lister),
          ("_necklaces", skipping, walk))
for name, fault, real in faults:
    setattr(necklaces, name, fault)
    try:
        necklaces.orbit_catalog(6, 3)
    except RuntimeError as exc:
        print("raised", exc)
    setattr(necklaces, name, real)
"""

WRONG_KIND = """
import gwbinom.necklaces as necklaces
words = necklaces._mirror_words

def flipped(n, j):
    listed = words(n, j)
    eps, mask = next(listed)
    yield 1 - eps, mask
    yield from listed

necklaces._mirror_words = flipped
for count in (necklaces.classify_flip_fixed, necklaces.odd_flip_fixed_count, necklaces.orbit_catalog):
    try:
        count(4, 2)
    except RuntimeError as exc:
        print("raised", exc)
"""

DROPPED_LYNDON_WORD = """
import gwbinom.necklaces as necklaces
lyndon = necklaces._lyndon_counts

def dropped(n):
    counts = lyndon(n)
    counts[3][1] -= 1  # 001, the one Lyndon word of length 3 with one 1
    return counts

necklaces._lyndon_counts = dropped
try:
    necklaces.even_orbit_counts(6)
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
    # one necklace of period 3 covers 3 of the C(4, 2) = 6 balanced masks
    proc = run_optimized("-c", BOGUS_NECKLACE)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised necklace periods add up to 3 masks, not C(4, 2)")


def test_odd_twisted_count_remainder_raises_under_O():
    # with 10 misread as 00, only one of the two 2-bead words v v' is counted
    # primitive, and one word is no whole necklace of two rotations
    proc = run_optimized("-c", MISREAD_WORD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised 1 primitive v v' are not whole 2-bead necklaces")


def test_wrong_period_fails_the_reflection_check_under_O():
    # the word 0011 has period 4; listed as flip-fixed and read with
    # period 2, its axis classes would be m = 1 and m = 3, and r^3 f does
    # not fix it
    proc = run_optimized("-c", WRONG_PERIOD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised reflection m=3 does not fix 0011 of period 2")


def test_mirror_word_and_walk_faults_raise_under_O():
    # a repeated mirror word meets its orbit three times; a listed orbit
    # that the flip moves fails its search; a walk without 000111 never
    # meets that listed orbit
    proc = run_optimized("-c", MIRROR_FAULTS)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised mirror words of (6, 3) do not meet each flip-fixed orbit twice",
        "raised the flip moves the listed orbit of 110100",
        "raised the walk of (6, 3) never met the listed orbit of 111000",
    ]


def test_mirror_word_of_the_wrong_kind_raises_under_O():
    # the first mirror word of (4, 2), 0101, read as fixed by f_1: its orbit,
    # named 1010 and of period 2, still meets two words, but now one of f_1
    proc = run_optimized("-c", WRONG_KIND)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "raised the orbit of 1010, of period 2, has 1 of its 2 mirror words fixed by f_1"] * 3


def test_row_walk_rank_raises_under_O():
    proc = run_optimized("-c", DROPPED_LYNDON_WORD)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("raised Lyndon words add up to 0 masks, not C(3, 1)")


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
