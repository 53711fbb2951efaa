"""Exact arithmetic in the Grothendieck-Witt ring of a finite field of odd order.

For an odd prime power q the ring GW(F_q) is Z[u]/(u^2 - 1, 2 - 2u):
classes of symmetric non-degenerate bilinear forms under orthogonal sum
and tensor product, where u is the class of the rank-one form scaled by
a non-square of F_q.  Rank together with the discriminant class in
F_q*/(F_q*)^2 is a complete invariant, so every element is stored in the
normal form (rank, disc) with disc in Z/2 (0 = square, 1 = non-square).
None of the arithmetic depends on which odd q is meant.

A coefficient pair a*<1> + b*<u> normalizes to rank a + b and
disc = b mod 2; the relation 2u = 2 is what discards everything about b
beyond its parity.  Negative ranks are legal (group completion), but the
display convention only covers the ranks that occur as coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arith import _require_int

SQUARE = 0
NONSQUARE = 1

_DISC_NAMES = {SQUARE: "square", NONSQUARE: "nonsquare"}


@dataclass(frozen=True, slots=True)
class GWElem:
    """A Grothendieck-Witt class in (rank, discriminant) normal form."""

    rank: int
    disc: int

    def __post_init__(self) -> None:
        _require_int(self.rank, self.disc)
        if self.disc not in (SQUARE, NONSQUARE):
            raise ValueError(f"disc must be {SQUARE} (square) or {NONSQUARE} (nonsquare)")

    @property
    def disc_name(self) -> str:
        return _DISC_NAMES[self.disc]

    def __add__(self, other: "GWElem") -> "GWElem":
        if not isinstance(other, GWElem):
            return NotImplemented
        return GWElem(self.rank + other.rank, (self.disc + other.disc) & 1)

    def __neg__(self) -> "GWElem":
        # -(a + b*u) has coefficients (-a, -b); parity of b survives.
        return GWElem(-self.rank, self.disc)

    def __sub__(self, other: "GWElem") -> "GWElem":
        if not isinstance(other, GWElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "GWElem") -> "GWElem":
        if not isinstance(other, GWElem):
            return NotImplemented
        # (a1 + b1 u)(a2 + b2 u) = a1 a2 + b1 b2 + (a1 b2 + a2 b1) u, using u^2 = 1.
        return GWElem(
            self.rank * other.rank,
            (self.rank * other.disc + other.rank * self.disc) & 1,
        )

    def __str__(self) -> str:
        return gw_display(self)


ZERO = GWElem(0, SQUARE)
ONE = GWElem(1, SQUARE)
#: The class of the rank-one form scaled by a non-square (rendered "u").
NONSQUARE_UNIT = GWElem(1, NONSQUARE)


def gw_from_coeffs(a: int, b: int) -> GWElem:
    """Normal form of a*<1> + b*<u>: rank a + b, disc = parity of b."""
    return GWElem(a + b, b & 1)


def trace_form_class(n: int) -> GWElem:
    """Class of the trace form of the degree-n field extension of the base field.

    Equals n*<1> for odd n and (n-1)*<1> + <u> for even n: the rank is n,
    and the discriminant is the discriminant of a generator's minimal
    polynomial, square exactly when the Frobenius n-cycle on its roots is
    an even permutation, i.e. when n is odd.
    """
    if n < 1:
        raise ValueError(f"degree must be positive, got {n}")
    return GWElem(n, SQUARE if n % 2 else NONSQUARE)


def gw_display(x: GWElem) -> str:
    """Render in the triangle convention: "rank" when the disc is square,
    otherwise "(rank-1)+u" with the rank-1 part dropped when it is zero."""
    if x.disc == SQUARE:
        if x.rank < 0:
            raise ValueError(f"no display for negative rank {x.rank}")
        return str(x.rank)
    if x.rank < 1:
        raise ValueError(f"no display for nonsquare disc with rank {x.rank} < 1")
    return "u" if x.rank == 1 else f"{x.rank - 1}+u"


def gw_to_json(x: GWElem) -> dict:
    return {"rank": x.rank, "disc": x.disc_name, "display": gw_display(x)}
