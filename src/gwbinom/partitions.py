"""Run-length encodings of two-colored necklace orbits, and cyclic compositions.

A necklace orbit containing both colors is written as an even-length
sequence (r1, b1, r2, b2, ..., rm, bm) of maximal run lengths, red runs
in the marked even-index slots and blue runs in the plain odd-index
slots, taken up to rotation by whole (r, b) blocks.  The color swap acts
by exchanging the markings, which block-rotates the sequence by half a
block.

Cyclic composition classes of an integer j (ordered positive summands up
to rotation) drive the parity bookkeeping for orbits fixed by the color
swap: j has 2^(j-1) compositions in total, and the class equation over
periods recovers that count.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import valuation
from .necklaces import (
    Necklace,
    OrbitRecord,
    _orbits,
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
        runs = tuple(int(r) for r in self.runs)
        if len(runs) < 2 or len(runs) % 2:
            raise ValueError(f"even run count >= 2 required, got {runs}")
        if any(r < 1 for r in runs):
            raise ValueError(f"run lengths must be positive, got {runs}")
        object.__setattr__(self, "runs", min(_block_rotations(runs)))

    @property
    def total(self) -> int:
        return sum(self.runs)

    @property
    def marked_total(self) -> int:
        return sum(self.runs[0::2])

    @property
    def unmarked_total(self) -> int:
        return sum(self.runs[1::2])

    @property
    def block_count(self) -> int:
        return len(self.runs) // 2

    def render(self) -> str:
        """Text form with a trailing apostrophe on marked entries, e.g. "(6' 4)"."""
        parts = [f"{r}'" if i % 2 == 0 else str(r) for i, r in enumerate(self.runs)]
        return "(" + " ".join(parts) + ")"

    def to_json(self) -> dict:
        return {
            "runs": list(self.runs),
            "marked": [i % 2 == 0 for i in range(len(self.runs))],
        }


def _block_rotations(runs: tuple[int, ...]) -> list[tuple[int, ...]]:
    return [runs[i:] + runs[:i] for i in range(0, len(runs), 2)]


def encode(rec: OrbitRecord) -> MarkedCyclicPartition:
    """Run-length encoding of an orbit with at least one bead of each color."""
    l = rec.canonical
    n = l.size
    if l.j == 0 or l.j == n:
        raise ValueError("monochrome necklace has no run boundaries to encode")
    start = next(p for p in range(n) if not l.is_blue(p) and l.is_blue(p - 1))
    runs = []
    p = start
    consumed = 0
    while consumed < n:
        r = 0
        while consumed < n and not l.is_blue(p):
            r += 1
            consumed += 1
            p = (p + 1) % n
        b = 0
        while consumed < n and l.is_blue(p):
            b += 1
            consumed += 1
            p = (p + 1) % n
        runs += [r, b]
    return MarkedCyclicPartition(tuple(runs))


def decode(p: MarkedCyclicPartition) -> OrbitRecord:
    """Orbit of the necklace laid out as the runs prescribe, reds first."""
    mask = 0
    pos = 0
    for i, run in enumerate(p.runs):
        if i % 2:  # blue run
            mask |= ((1 << run) - 1) << pos
        pos += run
    return orbit_record_of(Necklace(p.total, mask))


def partition_period(p: MarkedCyclicPartition) -> int:
    """Cyclic period of the marked run sequence, in entry units.

    Marks pin the red runs to even offsets, so only block shifts can fix
    the sequence; the period is therefore twice the block-rotation orbit
    size, and is always even.
    """
    return 2 * len(set(_block_rotations(p.runs)))


def compositions(j: int):
    """All 2^(j-1) ordered sequences of positive integers summing to j."""
    if j < 1:
        raise ValueError(f"positive j required, got {j}")

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
    # compositions() ascends lexicographically, so each class is walked
    # from its least rotation and the classes come out sorted.
    orbits = _orbits(compositions(j), lambda c: c[1:] + c[:1])
    return [(orbit[0], len(orbit)) for orbit in orbits]


def odd_period_composition_class_count(j: int) -> int:
    """Number of cyclic composition classes of j with odd period; equals the
    number of rotation orbits of balanced (2j, j) necklaces fixed by the
    color swap."""
    return sum(1 for _, period in cyclic_composition_classes(j) if period % 2)


_NU_FILTERS = ("all", "nu2_eq_1", "nu2_gt_1")


def efixed_untwisted_count(j: int, nu_filter: str = "all") -> int:
    """Number of rotation orbits of balanced (2j, j) necklaces fixed by the
    color swap, optionally filtered by the 2-adic valuation of the period.

    Periods of balanced necklaces are always even, so the valuation
    filters split the count into the nu2 = 1 and nu2 > 1 parts.
    """
    if nu_filter not in _NU_FILTERS:
        raise ValueError(f"nu_filter must be one of {_NU_FILTERS}, got {nu_filter!r}")
    count = 0
    for rec in enumerate_orbits(2 * j, j):
        if not color_swap_fixed(rec):
            continue
        if nu_filter == "all":
            count += 1
            continue
        nu = valuation(2, rec.period)
        if nu_filter == "nu2_eq_1" and nu == 1:
            count += 1
        elif nu_filter == "nu2_gt_1" and nu > 1:
            count += 1
    return count
