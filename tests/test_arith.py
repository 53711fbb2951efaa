import re
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gwbinom.arith import (
    _digits,
    big_binomial,
    digit_dominates,
    digit_sum,
    kummer_valuation,
    lucas_binom_mod_p,
    mobius,
    valuation,
)
from gwbinom.coefficients import (
    EnrichedCoefficient,
    correction_parity,
    half_central_hyperbolic,
    triangle_rows,
    twisted_closed,
    twisted_correction_parity,
    twisted_oracle,
    untwisted_closed,
    untwisted_oracle,
    verify,
)
from gwbinom.gw import GWElem, gw_from_coeffs, trace_form_class
from gwbinom.necklaces import (
    TYPE2,
    AxisIndex,
    Necklace,
    aperiodic_count,
    check_enumeration,
    classify_flip_fixed,
    count_even_orbits,
    interleave_parts,
    odd_flip_fixed_closed_form,
    orbit_record_of,
    rotate,
    strip_axis_beads,
    twisted_orbit_record_of,
)
from gwbinom.partitions import MarkedCyclicPartition, compositions


def composition_list(j):
    # compositions is a generator: its check runs on the first next()
    return list(compositions(j))


def pascal_rows(limit):
    """Independent binomial oracle by the additive recurrence."""
    rows = [[1]]
    for n in range(1, limit + 1):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return rows


def test_big_binomial_basic():
    assert big_binomial(8, 3) == 56
    assert big_binomial(20, 10) == 184756


def test_big_binomial_matches_pascal_recurrence():
    rows = pascal_rows(40)
    for n in range(41):
        for k in range(n + 1):
            assert big_binomial(n, k) == rows[n][k]


def test_big_binomial_vanishing_convention():
    assert big_binomial(3, Fraction(3, 2)) == 0
    assert big_binomial(Fraction(5, 2), 1) == 0
    assert big_binomial(4, 5) == 0
    assert big_binomial(4, -1) == 0
    assert big_binomial(-2, 0) == 0
    assert big_binomial(Fraction(6, 2), Fraction(2, 2)) == 3


def test_big_binomial_rejects_floats():
    with pytest.raises(TypeError):
        big_binomial(4.0, 2)


def _distinct_prime_factors(m):
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        out.append(m)
    return out


def test_mobius_values():
    assert mobius(1) == 1
    assert mobius(12) == 0
    assert mobius(30) == -1


def test_mobius_against_factorization_oracle():
    for m in range(1, 300):
        squarefree = all(m % (p * p) for p in _distinct_prime_factors(m))
        if not squarefree:
            assert mobius(m) == 0
        else:
            assert mobius(m) == (-1) ** len(_distinct_prime_factors(m))


def test_mobius_rejects_nonpositive():
    with pytest.raises(ValueError):
        mobius(0)


@pytest.mark.parametrize("fn, args", [
    (digit_sum, (2, 7.0)),
    (digit_sum, (2.0, 7)),
    (digit_sum, (True, 7)),
    (kummer_valuation, (2, 10.0, 3)),
    (kummer_valuation, (2, 10, 3.0)),
    (kummer_valuation, (2, True, 0)),
    (lucas_binom_mod_p, (2, 7.0, 3)),
    (lucas_binom_mod_p, (3, 7, True)),
    (lucas_binom_mod_p, (2, Fraction(7), 3)),
    (valuation, (2.0, 8)),
    (valuation, (2, 8.0)),
    (valuation, (2, True)),
    (_digits, (2, "5")),
    (mobius, (6.0,)),
    (mobius, (True,)),
    (mobius, (Fraction(6),)),
    (untwisted_closed, (True, 1)),
    (untwisted_oracle, (True, 1)),
    (twisted_closed, (True,)),
    (twisted_oracle, (True,)),
    (verify, (True, 0)),
    (count_even_orbits, (4, True)),
    (Necklace.from_positions, (3, [True])),
    (correction_parity, (True, 1)),
    (twisted_correction_parity, (True,)),
    (half_central_hyperbolic, (True,)),
    (rotate, (Necklace(3, 1), True)),
    (verify, (3, 1, True)),
    (triangle_rows, (True,)),
    (GWElem, (1, True)),
    (trace_form_class, (0.5,)),
    (composition_list, (True,)),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_non_int_arguments_raise_type_error(fn, args):
    # floats, bools, Fractions and strings are refused, not computed with:
    # a float would come back as a float (digit_sum(2, 7.0) == 3.0) and
    # True would pass for 1
    with pytest.raises(TypeError, match="int required"):
        fn(*args)


@pytest.mark.parametrize("fn, args, message", [
    (untwisted_closed, (-1, 0), "need 0 <= j <= n, got j=0, n=-1"),
    (untwisted_oracle, (3, 5), "need 0 <= j <= n, got j=5, n=3"),
    (check_enumeration, (3, 4), "need 0 <= j <= n, got j=4, n=3"),
    (check_enumeration, (0, 0), "positive n required, got 0"),
    # without the positive-n bead the first divides by zero and the
    # second halves n = 0 for ever
    (aperiodic_count, (0, 0), "positive n required, got 0"),
    (odd_flip_fixed_closed_form, (0, 0), "positive n required, got 0"),
    (classify_flip_fixed, (5, 2), "even n required, got 5"),
    (interleave_parts, (Necklace(5, 0),), "even size required, got 5"),
    (strip_axis_beads, (orbit_record_of(Necklace(8, 1)), AxisIndex(0, TYPE2)),
     "even blue count required, got 1"),
    (MarkedCyclicPartition, ((3,),), "even run count required, got 1"),
    (MarkedCyclicPartition, ((),), "positive block count required, got 0"),
    (twisted_orbit_record_of, (Necklace(4, 1),), "need n = 2j, got n=4, j=1"),
    (EnrichedCoefficient, (4, 1, True, gw_from_coeffs(4, 0), "closed"), "need n = 2j, got n=4, j=1"),
    (mobius, (0,), "positive m required, got 0"),
    (valuation, (2, 0), "positive x required, got 0"),
    (lucas_binom_mod_p, (3, -1, 0), "non-negative integer required, got -1"),
    (lucas_binom_mod_p, (3, 0, -1), "non-negative integer required, got -1"),
    # two positions in would be one blue out
    (Necklace.from_positions, (4, [1, 1]), "position 1 given twice"),
], ids=lambda v: v.__name__ if callable(v) else v if isinstance(v, str) else None)
def test_argument_rules_raise_value_error(fn, args, message):
    # the cell, balance, parity and positivity rules of arith, each called
    # by name: one message per rule wherever its argument shape is taken
    with pytest.raises(ValueError, match=re.escape(message)):
        fn(*args)


def test_valuation():
    assert valuation(2, 70) == 1
    assert valuation(2, 1) == 0
    assert valuation(3, 27) == 3
    with pytest.raises(ValueError):
        valuation(2, 0)
    with pytest.raises(ValueError):
        valuation(4, 8)


def test_p_adic_digits_roundtrip():
    assert _digits(3, 25) == [1, 2, 2]
    assert _digits(5, 0) == []
    assert digit_sum(2, 8) == 1
    assert digit_sum(2, 7) == 3


def test_digit_helpers_reject_composite_base():
    with pytest.raises(ValueError):
        digit_sum(4, 5)
    with pytest.raises(ValueError):
        lucas_binom_mod_p(4, 5, 2)
    with pytest.raises(ValueError):
        kummer_valuation(6, 5, 2)


def test_lucas_examples():
    assert lucas_binom_mod_p(2, 10, 4) == 210 % 2 == 0
    for n in (0, 1, 5, 100):
        assert lucas_binom_mod_p(2, n, 0) == 1
    assert lucas_binom_mod_p(3, 7, 2) == 21 % 3 == 0


def test_lucas_matches_direct_mod_small():
    for p in (2, 3, 5, 7):
        for x in range(60):
            for y in range(x + 1):
                assert lucas_binom_mod_p(p, x, y) == big_binomial(x, y) % p


def test_kummer_examples():
    assert kummer_valuation(2, 8, 4) == 1 == valuation(2, 70)
    for n in (0, 3, 17):
        assert kummer_valuation(2, n, 0) == 0
    with pytest.raises(ValueError):
        kummer_valuation(2, 3, 4)


def test_kummer_matches_direct_valuation_small():
    for p in (2, 3, 5):
        for n in range(1, 80):
            for m in range(n + 1):
                assert kummer_valuation(p, n, m) == valuation(p, big_binomial(n, m))


def test_central_binomial_valuation():
    # v2(C(2j, j)) >= 1 with equality exactly at powers of two
    for j in range(1, 200):
        v = kummer_valuation(2, 2 * j, j)
        assert v >= 1
        assert (v == 1) == (j & (j - 1) == 0)


def test_valuation_doubling_identities():
    # v2 C(n,j) = v2 C(2n,2j) = v2 C(2n+1,2j+1)
    for n in range(129):
        for j in range(n + 1):
            v = kummer_valuation(2, n, j)
            assert v == kummer_valuation(2, 2 * n, 2 * j)
            assert v == kummer_valuation(2, 2 * n + 1, 2 * j + 1)


def test_valuation_even_shift_identity():
    # even n, j: v2 C(n,j) = v2 C(n+1,j)
    for n in range(0, 129, 2):
        for j in range(0, n + 1, 2):
            assert kummer_valuation(2, n, j) == kummer_valuation(2, n + 1, j)


def test_digit_dominates_examples():
    assert digit_dominates(1, 3)
    assert not digit_dominates(1, 2)
    assert not digit_dominates(Fraction(3, 2), 4)
    assert digit_dominates(0, 0)
    assert not digit_dominates(-1, 3)


def test_digit_dominates_iff_odd_binomial():
    for x in range(257):
        for y in range(257):
            assert digit_dominates(x, y) == (big_binomial(y, x) % 2 == 1)


@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_digit_dominates_matches_bit_test(x, y):
    assert digit_dominates(x, y) == ((x & y) == x)
