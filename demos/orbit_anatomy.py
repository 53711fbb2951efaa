"""Anatomy of necklace orbits: periods, symmetry axes, and two surgeries.

Rotation orbits of two-colored necklaces carry a period (the orbit
size), may or may not be preserved by the flip, and when they are, their
symmetry axes come in two kinds: through beads (type 2) or between beads
(type 1).  Even-length necklaces also split into two interleaved
half-length necklaces, and the pair of beads on a through-beads axis can
be stripped off or glued back.
"""

from gwbinom.necklaces import (
    BLUE,
    Necklace,
    aperiodic_count,
    axis_distance,
    classify_flip_fixed,
    enumerate_orbits,
    insert_axis_beads,
    interleave_decompose,
    interleave_fiber_size,
    orbit_record_of,
    strip_axis_beads,
)

print(__doc__)

print("All rotation orbits of six-bead necklaces with two blues:")
for rec in enumerate_orbits(6, 2):
    axes = ", ".join(f"m={a.m} type{a.axis_type}" for a in rec.axes) or "none"
    print(f"  {rec.canonical.bitstring()}   period {rec.period}   axes: {axes}")
print("full-period orbit count by Moebius inversion:", aperiodic_count(6, 2))
print()

print("A period-3 orbit with one axis of each type, distance 3/2 beads:")
rec = orbit_record_of(Necklace.from_positions(6, (0, 1, 3, 4)))
print("  canonical:", rec.canonical.bitstring(), " axes:", rec.axes)
print("  distance:", axis_distance(rec, rec.axes[0], rec.axes[1]))
print()

print("Flip-fixed census for twelve beads, six blue:", classify_flip_fixed(12, 6))
print()

print("Interleaving: even positions and odd positions form two 5-bead orbits")
big = orbit_record_of(Necklace.from_positions(10, (0, 1, 5, 9)))
a, b = interleave_decompose(big)
print(f"  {big.canonical.bitstring()}  ->  {a.canonical.bitstring()} x {b.canonical.bitstring()}")
rec5 = orbit_record_of(Necklace.from_positions(5, (0, 1)))
print("  a flip-fixed 5-bead orbit of period 5 interleaves with itself in",
      interleave_fiber_size((rec5, rec5)), "ways")
print()

print("Stripping the two beads on a through-beads axis, and gluing them back:")
rec = orbit_record_of(Necklace.from_positions(8, (0, 4)))
for axis in rec.axes:
    smaller = strip_axis_beads(rec, axis)
    print(f"  axis m={axis.m}: {rec.canonical.bitstring()} -> {smaller.canonical.bitstring()}")
grown = insert_axis_beads(orbit_record_of(Necklace(6, 0)), BLUE)
print("  inserting two blues into the all-red 6-necklace:", grown.canonical.bitstring())
