"""Exact number-theoretic helpers.

Everything here is big-integer or exact-rational arithmetic: binomial
coefficients with a vanishing convention for fractional arguments, the
Moebius function, p-adic valuations and digit expansions, Lucas residues,
Kummer valuations, and the binary digit-dominance partial order.  Floats
and bools are rejected with TypeError; parities and 2-adic valuations carry
all the content downstream, so nothing here may round.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest


def _require_int(*xs) -> None:
    """Raise TypeError unless every x is an int, and not a bool."""
    for x in xs:
        if not isinstance(x, int) or isinstance(x, bool):
            raise TypeError(f"int required, got {x!r}")


def _as_integer(x) -> int | None:
    """Return x as an int when it is an exact integer, else None."""
    if isinstance(x, bool):
        raise TypeError("bool is not a valid arithmetic argument")
    if isinstance(x, int):
        return x
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
    """Least prime factor of m >= 2, by trial division."""
    d = 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


def mobius(m: int) -> int:
    """Moebius function by trial division: 1, 0 on a squared prime factor,
    else (-1)^(number of prime factors)."""
    _require_int(m)
    if m < 1:
        raise ValueError(f"mobius is defined on positive integers, got {m}")
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


def valuation(p: int, x: int) -> int:
    """Largest e with p^e dividing x; defined only for x >= 1."""
    _require_prime(p)
    _require_int(x)
    if x < 1:
        raise ValueError(f"valuation is defined on positive integers, got {x}")
    e = 0
    while x % p == 0:
        x //= p
        e += 1
    return e


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
    base-p expansions."""
    if x < 0 or y < 0:
        raise ValueError("non-negative integers required")
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
