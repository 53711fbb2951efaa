"""Exact number-theoretic helpers.

Big-integer and rational arithmetic: binomials that vanish at fractional
arguments, Moebius, p-adic digits, Lucas residues, Kummer valuations,
binary digit dominance.  Nothing may round, as parities and
2-adic valuations carry everything downstream.  The package's argument
rules live here alone: a size or count is an int, not a bool (`_require_int`),
at least 1 where it must be (`_require_positive`); a cell has 0 <= j <= n
(`_require_cell`), a twisted one n = 2j (`_require_balanced`), and a parity
check is `_require_even`.  tests/test_source_guard.py refuses a copy elsewhere.
"""

from __future__ import annotations

import math
from itertools import zip_longest


def _require_int(*xs) -> None:
    """Raise TypeError unless every x is an int, and not a bool."""
    for x in xs:
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
            raise TypeError(f"int required, got {x!r}")


def _require_positive(x, name: str) -> None:
    """`_require_int(x)`, then ValueError unless x >= 1."""
    _require_int(x)
    if x < 1:
        raise ValueError(f"positive {name} required, got {x}")


def _require_cell(n, j) -> None:
    """`_require_int(n, j)`, then ValueError unless 0 <= j <= n."""
    _require_int(n, j)
    if not 0 <= j <= n:
        raise ValueError(f"need 0 <= j <= n, got j={j}, n={n}")


def _require_balanced(n, j) -> None:
    """ValueError unless n = 2j, the twisted family's cell."""
    if n != 2 * j:
        raise ValueError(f"need n = 2j, got n={n}, j={j}")


def _require_even(x, name: str) -> None:
    """ValueError unless the int x is even."""
    if x % 2:
        raise ValueError(f"even {name} required, got {x}")


def _as_integer(x) -> int | None:
    """Return x as an int when it is an exact integer, else None."""
    if isinstance(x, bool):
        raise TypeError("bool is not a valid arithmetic argument")
    if isinstance(x, int):
        return x
    from fractions import Fraction  # only a non-int argument loads fractions

    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else None
    raise TypeError(f"exact int or Fraction required, got {type(x).__name__}")


def big_binomial(a: int | Fraction, b: int | Fraction) -> int:
    """Binomial coefficient with the vanishing convention.

    Exact C(a, b) when a and b are integers with 0 <= b <= a, and 0 for
    every other rational input: fractional arguments, negatives, or b > a.
    """
    ai = _as_integer(a)
    bi = _as_integer(b)
    if ai is None or bi is None or not 0 <= bi <= ai:
        return 0
    return math.comb(ai, bi)


def _smallest_factor(m: int) -> int:
    """Least prime factor of m >= 2, by trial division by 2 and then by odd d."""
    if m % 2 == 0:
        return 2
    d = 3
    while d * d <= m:
        if m % d == 0:
            return d
        d += 2
    return m


def mobius(m: int) -> int:
    """Moebius function by trial division: 1, 0 on a squared prime factor,
    else (-1)^(number of prime factors)."""
    _require_positive(m, "m")
    count = 0
    while m > 1:
        d = _smallest_factor(m)
        m //= d
        if m % d == 0:
            return 0
        count += 1
    return -1 if count % 2 else 1


def _require_prime(p: int) -> None:
    _require_int(p)
    if p < 2:
        raise ValueError(f"prime required, got {p}")
    d = _smallest_factor(p)
    if d != p:
        raise ValueError(f"prime required, got {p} = {d} * {p // d}")


def _digits(p: int, x: int) -> list[int]:
    """Base-p digits of x >= 0, least significant first; [] for zero."""
    _require_prime(p)
    _require_int(x)
    if x < 0:
        raise ValueError(f"non-negative integer required, got {x}")
    ds = []
    while x:
        x, r = divmod(x, p)
        ds.append(r)
    return ds


def digit_sum(p: int, x: int) -> int:
    """Sum of the base-p digits of x (the carry-counting quantity in
    Kummer's theorem)."""
    return sum(_digits(p, x))


def lucas_binom_mod_p(p: int, x: int, y: int) -> int:
    """C(x, y) mod p by Lucas: the product of digitwise binomials of the
    base-p expansions; _digits refuses a negative x or y."""
    out = 1
    for xi, yi in zip_longest(_digits(p, x), _digits(p, y), fillvalue=0):
        out = out * math.comb(xi, yi) % p
        if out == 0:
            return 0
    return out


def kummer_valuation(p: int, n: int, m: int) -> int:
    """p-adic valuation of C(n, m) by Kummer: (S_p(m) + S_p(n-m) - S_p(n)) / (p-1),
    the number of carries when adding m and n-m in base p."""
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= m <= n, got m={m}, n={n}")
    return (digit_sum(p, m) + digit_sum(p, n - m) - digit_sum(p, n)) // (p - 1)


def digit_dominates(x: int | Fraction, y: int | Fraction) -> bool:
    """Binary digit-dominance order: true iff x and y are both non-negative
    integers and every base-2 digit of x is <= the matching digit of y.

    By Lucas at p = 2 this is equivalent to C(y, x) being odd.
    """
    xi = _as_integer(x)
    yi = _as_integer(y)
    if xi is None or yi is None or xi < 0 or yi < 0:
        return False
    return xi & ~yi == 0
