"""A tour of the enriched triangle.

Entries live in the Grothendieck-Witt ring of a finite field of odd
order: the class of a symmetric bilinear form, pinned down by its rank
and its discriminant class.  Odd rows look exactly like Pascal's
triangle; even rows pick up a "+u" in the slots where the correction
binomial C((n-2)/2, (j-1)/2) is odd.
"""

from gwbinom.cli import triangle_text
from gwbinom.coefficients import triangle_rows, untwisted_closed, untwisted_oracle
from gwbinom.gw import NONSQUARE_UNIT, gw_display, gw_from_coeffs, trace_form_class

print(__doc__)

print("The ring in one line: u * u =", gw_display(NONSQUARE_UNIT * NONSQUARE_UNIT),
      "and 2u = 2, so a class is (rank, disc):", gw_from_coeffs(0, 2), "== 2*<1>")
print()

print("Trace forms of small field extensions:")
for n in range(1, 7):
    print(f"  degree {n}: {gw_display(trace_form_class(n))}")
print()

print("The first nine rows:")
print(triangle_text(triangle_rows(9)))
print()

print("Every entry is also computable by counting even-period necklace orbits;")
print("a few spot checks of closed form vs enumeration:")
for n, j in [(2, 1), (4, 1), (6, 3), (8, 3), (12, 5)]:
    closed = untwisted_closed(n, j)
    oracle = untwisted_oracle(n, j)
    marker = "ok" if closed.value == oracle.value else "MISMATCH"
    print(f"  (n={n:2d}, j={j}):  closed {closed.display:>6}   oracle {oracle.display:>6}   {marker}")
