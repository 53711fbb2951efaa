"""Run-length encodings and cyclic compositions.

A necklace orbit with both colors present compresses to an alternating
sequence of red and blue run lengths up to block rotation; red runs are
marked.  On balanced necklaces, the orbits fixed by the color swap match
the cyclic composition classes of j with odd period, and the class
equation over periods recovers the 2^(j-1) compositions of j.
"""

from gwbinom.necklaces import Necklace, orbit_record_of
from gwbinom.partitions import (
    MarkedCyclicPartition,
    cyclic_composition_classes,
    decode,
    efixed_untwisted_count,
    encode,
    odd_period_composition_class_count,
    partition_period,
)

print(__doc__)

print("Three ten-bead necklaces and their run encodings:")
for positions in [(1, 2, 3, 4), (1, 4, 6, 9), (0, 2, 3, 5)]:
    rec = orbit_record_of(Necklace.from_positions(10, positions))
    p = encode(rec)
    print(f"  {rec.canonical.bitstring()}   {p.render():>22}   period {partition_period(p)}"
          f"   decodes back: {decode(p) == rec}")
print()

print("JSON form of (6' 4):", MarkedCyclicPartition((6, 4)).to_json())
print()

print("Cyclic composition classes of 4 and their periods:")
for canonical, period in cyclic_composition_classes(4):
    print(f"  {canonical}   period {period}")
total = sum(p for _, p in cyclic_composition_classes(4))
print("class equation: sum of periods =", total, "= 2^(4-1)")
print()

print("Color-swap-fixed orbit counts vs odd-period composition classes:")
for j in range(1, 9):
    left = efixed_untwisted_count(j)
    right = odd_period_composition_class_count(j)
    print(f"  j={j}:  {left} orbits  ==  {right} classes   {'ok' if left == right else 'MISMATCH'}")
