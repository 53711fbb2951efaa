"""Acceptance suite: one test per criterion, each printing a PASS line with
its runtime (visible under ``pytest -v -s`` or in the captured output)."""

import time
from math import comb

from conftest import valuation

from gwbinom.arith import kummer_valuation, lucas_binom_mod_p
from gwbinom.cli import main
from gwbinom.coefficients import twisted_closed, twisted_oracle, untwisted_closed, untwisted_oracle
from gwbinom.necklaces import (
    TYPE1,
    TYPE2,
    aperiodic_count,
    axis_distance,
    classify_flip_fixed,
    count_even_orbits,
    count_even_twisted_orbits,
    enumerate_orbits,
    odd_flip_fixed_closed_form,
    odd_flip_fixed_count,
)
from gwbinom.partitions import (
    cyclic_composition_classes,
    efixed_untwisted_count,
    odd_period_composition_class_count,
)

from fractions import Fraction


class timer:
    def __init__(self, number, name, budget):
        self.number, self.name, self.budget = number, name, budget

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"acceptance {self.number:>2} ({self.name}): PASS ({elapsed:.2f}s)")
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its {self.budget}s budget: {elapsed:.2f}s"
            )


GOLDEN_TRIANGLE = [
    ["1"],
    ["1", "1"],
    ["1", "1+u", "1"],
    ["1", "3", "3", "1"],
    ["1", "3+u", "6", "3+u", "1"],
    ["1", "5", "10", "10", "5", "1"],
    ["1", "5+u", "15", "20", "15", "5+u", "1"],
    ["1", "7", "21", "35", "35", "21", "7", "1"],
    ["1", "7+u", "28", "55+u", "70", "55+u", "28", "7+u", "1"],
]


def test_criterion_1_golden_triangle(capsys):
    with timer(1, "golden triangle", budget=1.0):
        assert main(["triangle", "--rows", "9"]) == 0
        out = capsys.readouterr().out
        rows = [line.split() for line in out.splitlines()]
        assert rows == GOLDEN_TRIANGLE


def test_criterion_2_golden_twisted_sequence():
    with timer(2, "golden twisted sequence", budget=1.0):
        got = [twisted_closed(j).display for j in range(1, 9)]
        assert got == ["2", "5+u", "20", "69+u", "252", "924", "3432", "12869+u"]


def test_criterion_3_untwisted_equivalence_sweep():
    with timer(3, "untwisted closed = oracle, n <= 16", budget=60.0):
        cells = 0
        for n in range(17):
            for j in range(n + 1):
                assert untwisted_closed(n, j).value == untwisted_oracle(n, j).value, (n, j)
                cells += 1
        assert cells == 153


def test_criterion_4_twisted_equivalence_sweep():
    with timer(4, "twisted closed = oracle, j <= 10", budget=60.0):
        for j in range(1, 11):
            assert twisted_closed(j).value == twisted_oracle(j).value, j


def test_criterion_5_mobius_consistency():
    with timer(5, "aperiodic counts vs enumeration, n <= 16", budget=30.0):
        for n in range(1, 17):
            for j in range(n + 1):
                brute = sum(1 for rec in enumerate_orbits(n, j) if rec.period == n)
                assert aperiodic_count(n, j) == brute, (n, j)


def test_criterion_6_lucas_kummer():
    with timer(6, "Lucas and Kummer vs direct computation, n <= 300", budget=30.0):
        for p in (2, 3, 5, 7):
            for n in range(301):
                for m in range(n + 1):
                    c = comb(n, m)
                    assert lucas_binom_mod_p(p, n, m) == c % p, (p, n, m)
                    assert kummer_valuation(p, n, m) == valuation(p, c), (p, n, m)


def test_criterion_7_symmetry_axis_laws():
    with timer(7, "axis count, distance, and type intersection, n <= 16", budget=30.0):
        for n in range(1, 17):
            for j in range(n + 1):
                for rec in enumerate_orbits(n, j):
                    if not rec.flip_fixed:
                        assert rec.axes == ()
                        continue
                    if (n // rec.period) % 2:
                        assert len(rec.axes) == 1, (n, j, rec)
                    else:
                        assert len(rec.axes) == 2, (n, j, rec)
                        d = axis_distance(rec, rec.axes[0], rec.axes[1])
                        assert d == Fraction(rec.period, 2), (n, j, rec)
                    if n % 2 == 0:
                        types = {a.axis_type for a in rec.axes}
                        if rec.period % 2:
                            assert types == {TYPE1, TYPE2}, (n, j, rec)
                        else:
                            assert len(types) == 1, (n, j, rec)


def test_criterion_8_structural_formulas():
    with timer(8, "structural count formulas, even n <= 16", budget=60.0):
        for n in range(2, 17, 2):
            for j in range(0, n + 1, 2):
                counts = classify_flip_fixed(n, j)
                # type-1 even-period count from the half-size data
                assert 2 * counts.type1_even == comb(n // 2, j // 2) - odd_flip_fixed_count(
                    n // 2, j // 2
                ), (n, j)
                # odd-period closed form
                assert odd_flip_fixed_count(n, j) == odd_flip_fixed_closed_form(n, j), (n, j)
                if n % 4 == 2:
                    # even-period flip-fixed count when n is twice an odd number
                    corr = comb((n - 2) // 4, (j - 2) // 4 if j % 4 == 2 else j // 4)
                    assert counts.type1_even + counts.type2_even == comb(n // 2, j // 2) - corr, (
                        n,
                        j,
                    )
                else:
                    # through-beads flip-fixed count when 4 divides n
                    type2_all = counts.type2_even + counts.odd_fixed
                    assert 2 * type2_all == comb(n // 2, j // 2) + odd_flip_fixed_count(n, j), (
                        n,
                        j,
                    )


def test_criterion_9_partition_identities():
    with timer(9, "composition class equation and swap-fixed bijection", budget=30.0):
        for j in range(1, 15):
            assert sum(p for _, p in cyclic_composition_classes(j)) == 2 ** (j - 1), j
        for j in range(1, 11):
            assert efixed_untwisted_count(j) == odd_period_composition_class_count(j), j


def test_criterion_10_vanishing_cases():
    with timer(10, "vanishing corrections by oracle parity", budget=60.0):
        for n in range(1, 17):
            for j in range(n + 1):
                if n % 2 or j % 2 == 0:
                    assert count_even_orbits(n, j) % 2 == 0, (n, j)
        for j in (1, 3, 5, 7, 9):
            assert count_even_twisted_orbits(j) % 2 == 0, j
