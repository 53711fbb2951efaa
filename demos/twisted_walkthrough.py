"""The twisted coefficients, step by step.

On balanced necklaces (j blue, j red) there is a second action: each
generator step rotates one bead and then exchanges the two colors.  The
twisted coefficient is C(2j, j) plus (u - 1) times the number of
even-period orbits of that action, and it collapses to a closed form
with a correction exactly at j = 2, 4, 8, 16, ...

j = 1 is a tiny curiosity: both necklaces are fixed points of the
twisted step, so the value is the plain 2 rather than 1+u.
"""

from gwbinom.coefficients import twisted_closed, twisted_oracle
from gwbinom.necklaces import (
    Necklace,
    color_swap,
    count_even_twisted_swap_fixed,
    enumerate_twisted_orbits,
    rotate,
    swap_action,
)

print(__doc__)

print("The twisted step on two beads:", Necklace(2, 1).bitstring(), "->",
      color_swap(rotate(Necklace(2, 1), 1)).bitstring(), "(fixed)")
print()

print("Twisted orbits for j = 2:")
for rec in enumerate_twisted_orbits(2):
    print(f"  {rec.canonical.bitstring()}   twisted period {rec.twisted_period}"
          f"   swap fixed: {rec.swap_fixed}")
print()

print("Swapping exchanges the two interleaved halves; an orbit and its partner:")
t = enumerate_twisted_orbits(3)[0]
print(f"  {t.canonical.bitstring()}  <->  {swap_action(t).canonical.bitstring()}")
print()

print("Even-period swap-fixed counts (their parity drives the correction):")
for j in range(1, 9):
    print(f"  j={j}: {count_even_twisted_swap_fixed(j)}")
print()

print("The sequence, closed form against the enumeration oracle:")
for j in range(1, 11):
    closed = twisted_closed(j)
    oracle = twisted_oracle(j)
    marker = "ok" if closed.value == oracle.value else "MISMATCH"
    print(f"  j={j:2d}:  {closed.display:>8}   oracle {oracle.display:>8}   {marker}")
