"""Run-length encodings of two-colored necklace orbits, and cyclic compositions.

A necklace orbit containing both colors is written as an even-length
sequence (r1, b1, r2, b2, ..., rm, bm) of maximal run lengths, red runs
in the marked even-index slots and blue runs in the plain odd-index
slots, taken up to rotation by whole (r, b) blocks.  The color swap acts
by exchanging the markings, which block-rotates the sequence by half a
block.  Both directions work on the necklace's word (Necklace.bitstring):
encoding rotates it to start at a red bead after a blue one and reads off
the run lengths, decoding joins the runs into a word.  Block rotation goes
through the same orbit walk, _cycle, as every other cyclic action.

Cyclic composition classes of an integer j (ordered positive summands up
to rotation) drive the parity bookkeeping for orbits fixed by the color
swap: j has 2^(j-1) compositions in total, and the class equation over
periods recovers that count.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .arith import _require_even, _require_positive
from .necklaces import (
    OrbitRecord,
    _cycle,
    _from_word,
    color_swap_fixed,
    enumerate_orbits,
    orbit_record_of,
)


@dataclass(frozen=True)
class MarkedCyclicPartition:
    """Alternating red/blue run lengths of a necklace orbit, canonicalized
    to the least rotation by whole (red, blue) blocks.

    Entries at even indices are the marked (red) runs.  The period of the
    class is measured in entries: twice the block-rotation orbit size.
    """

    runs: tuple[int, ...]

    def __post_init__(self) -> None:
        runs = tuple(self.runs)
        for r in runs:
            _require_positive(r, "run length")
        _require_even(len(runs), "run count")
        _require_positive(len(runs) // 2, "block count")
        object.__setattr__(self, "runs", min(_cycle(runs, _next_block)))

    def render(self) -> str:
        """Text form with a trailing apostrophe on marked entries, e.g. "(6' 4)"."""
        parts = [f"{r}'" if i % 2 == 0 else str(r) for i, r in enumerate(self.runs)]
        return "(" + " ".join(parts) + ")"

    def to_json(self) -> dict:
        return {
            "runs": list(self.runs),
            "marked": [i % 2 == 0 for i in range(len(self.runs))],
        }


def _next_block(runs: tuple[int, ...]) -> tuple[int, ...]:
    """Rotate a run sequence by one (red, blue) block."""
    return runs[2:] + runs[:2]


def encode(rec: OrbitRecord) -> MarkedCyclicPartition:
    """Run-length encoding of an orbit with at least one bead of each color."""
    if rec.j in (0, rec.size):
        raise ValueError("monochrome necklace has no run boundaries to encode")
    word = rec.canonical.bitstring()
    # The first red bead whose cyclic predecessor is blue starts a red run.
    start = (word[-1] + word).index("10")
    word = word[start:] + word[:start]
    return MarkedCyclicPartition(tuple(len(list(run)) for _, run in groupby(word)))


def decode(p: MarkedCyclicPartition) -> OrbitRecord:
    """Orbit of the necklace laid out as the runs prescribe, reds first."""
    runs = p.runs
    word = "".join("0" * r + "1" * b for r, b in zip(runs[0::2], runs[1::2]))
    return orbit_record_of(_from_word(word))


def partition_period(p: MarkedCyclicPartition) -> int:
    """Cyclic period of the marked run sequence, in entry units.

    Marks pin the red runs to even offsets, so only block shifts can fix
    the sequence; the period is therefore twice the block-rotation orbit
    size, and is always even.
    """
    return 2 * len(_cycle(p.runs, _next_block))


def compositions(j: int):
    """All 2^(j-1) ordered sequences of positive integers summing to j."""
    _require_positive(j, "j")

    def rec(remaining: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for first in range(1, remaining + 1):
            yield from rec(remaining - first, prefix + (first,))

    yield from rec(j, ())


def cyclic_composition_classes(j: int) -> list[tuple[tuple[int, ...], int]]:
    """Cyclic rotation classes of compositions of j, as (canonical, period)
    pairs sorted by canonical tuple; period counts distinct single-entry
    rotations."""
    # compositions() ascends lexicographically, so keeping each class at
    # its least rotation lists the classes sorted.
    return [
        (c, len(orbit))
        for c in compositions(j)
        if c == min(orbit := _cycle(c, lambda r: r[1:] + r[:1]))
    ]


def odd_period_composition_class_count(j: int) -> int:
    """Number of cyclic composition classes of j with odd period; equals the
    number of rotation orbits of balanced (2j, j) necklaces fixed by the
    color swap."""
    return sum(1 for _, period in cyclic_composition_classes(j) if period % 2)


def efixed_untwisted_count(j: int) -> int:
    """Number of rotation orbits of balanced (2j, j) necklaces fixed by the
    color swap."""
    return sum(1 for rec in enumerate_orbits(2 * j, j) if color_swap_fixed(rec))
