import json
import os
from fractions import Fraction
from math import comb

import pytest

from gwbinom.arith import big_binomial
from gwbinom.cli import main
from gwbinom.coefficients import (
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
from gwbinom.gw import SQUARE, gw_display, gw_from_coeffs
from gwbinom.necklaces import EnumerationLimitError, count_even_orbits


def test_untwisted_closed_examples():
    assert untwisted_closed(2, 1).display == "1+u"
    assert untwisted_closed(8, 3).display == "55+u"
    assert untwisted_closed(6, 3).display == "20"


def test_untwisted_closed_validation():
    with pytest.raises(ValueError):
        untwisted_closed(3, 5)
    with pytest.raises(ValueError):
        untwisted_closed(3, -1)
    with pytest.raises(ValueError):
        untwisted_closed(-1, 0)


def test_untwisted_oracle_examples():
    assert untwisted_oracle(4, 1).display == "3+u"
    assert untwisted_oracle(4, 2).display == "6"
    assert untwisted_oracle(3, 1).display == "3"


def test_correction_parity_is_even_orbit_parity():
    # for even n and odd j the closed correction bit equals the parity of
    # the even-period orbit count
    for n in range(2, 17, 2):
        for j in range(1, n + 1, 2):
            assert correction_parity(n, j) == count_even_orbits(n, j) % 2


def test_correction_parity_is_raw_binomial_parity():
    # the integer digit-dominance test against the parity of the fractional
    # binomial C((n-2)/2, (j-1)/2), out-of-range and negative pairs included
    for n in range(-4, 260):
        for j in range(-4, 260):
            want = big_binomial(Fraction(n - 2, 2), Fraction(j - 1, 2)) % 2
            assert correction_parity(n, j) == want, (n, j)


def test_rank_is_plain_binomial():
    for n in range(0, 17):
        for j in range(n + 1):
            assert untwisted_closed(n, j).value.rank == comb(n, j)


def test_twisted_closed_sequence():
    want = ["2", "5+u", "20", "69+u", "252", "924", "3432", "12869+u"]
    assert [twisted_closed(j).display for j in range(1, 9)] == want


def test_twisted_correction_parity():
    assert [j for j in range(1, 70) if twisted_correction_parity(j)] == [2, 4, 8, 16, 32, 64]


def test_twisted_closed_validation():
    with pytest.raises(ValueError):
        twisted_closed(0)


def test_twisted_oracle_validation():
    for j in (0, -1):
        with pytest.raises(ValueError, match="positive j required"):
            twisted_oracle(j)


def test_twisted_oracle_examples():
    assert twisted_oracle(1).display == "2"
    assert twisted_oracle(2).display == "5+u"
    assert twisted_oracle(3).display == "20"


def test_half_central_hyperbolic_identity():
    # (C(2j,j)/2)(1+u) = C(2j,j) + (u-1)[v2(C(2j,j)) = 1] for every j, and
    # it matches the twisted closed form for j >= 2; j = 1 is the lone
    # exception, where the enumeration gives the untwisted-looking value 2
    from gwbinom.arith import valuation

    for j in range(1, 65):
        c = comb(2 * j, j)
        d = 1 if valuation(2, c) == 1 else 0
        assert half_central_hyperbolic(j) == gw_from_coeffs(c - d, d)
        if j >= 2:
            assert twisted_closed(j).value == half_central_hyperbolic(j)
    assert twisted_closed(1).value != half_central_hyperbolic(1)
    assert twisted_closed(1).value == twisted_oracle(1).value


def test_triangle_shape_and_rows():
    table = triangle_rows(3)
    assert [gw_display(v) for v in table[2]] == ["1", "1+u", "1"]
    table = triangle_rows(9)
    assert [gw_display(v) for v in table[8]] == [
        "1", "7+u", "28", "55+u", "70", "55+u", "28", "7+u", "1",
    ]
    assert len(table) == 9
    with pytest.raises(ValueError):
        triangle_rows(0)


def test_triangle_symmetry():
    # the triangle mirrors each half row, so the symmetry it relies on is
    # checked on the closed form cell by cell, with a fresh binomial each
    for n in range(65):
        for j in range(n + 1):
            assert untwisted_closed(n, j).value == untwisted_closed(n, n - j).value, (n, j)


def test_triangle_row_walk_matches_fresh_binomials():
    # every cell of the walked and mirrored rows against untwisted_closed,
    # which takes math.comb(n, j) afresh; rows 0..2 are the mirror's edges
    table = triangle_rows(160)
    assert [len(row) for row in table] == list(range(1, 161))
    for n, row in enumerate(table):
        assert row == [untwisted_closed(n, j).value for j in range(n + 1)], n
    for rows in (1, 2, 3):
        assert triangle_rows(rows) == [[untwisted_closed(n, j).value for j in range(n + 1)]
                                       for n in range(rows)]
    assert [[gw_display(v) for v in row] for row in triangle_rows(3)] == [
        ["1"], ["1", "1"], ["1", "1+u", "1"]]


def test_triangle_rows_are_the_triangles_classes():
    # each mirrored cell holds the very GWElem of its partner in the walked half
    rows = triangle_rows(40)
    assert all(row[n - j] is row[j] for n, row in enumerate(rows) for j in range(n + 1))
    with pytest.raises(ValueError, match="MAX_ROWS"):
        triangle_rows(1001)


def _cli_triangle_classes(capsys, rows: int) -> list[list[tuple[int, str]]]:
    # (rank, display) of every cell of the triangle command's JSON
    assert main(["triangle", "--rows", str(rows), "--format", "json"]) == 0
    cells = json.loads(capsys.readouterr().out)["triangle"]
    return [[(c["rank"], c["display"]) for c in row] for row in cells]


def test_triangle_and_closed_form_share_one_definition(monkeypatch, capsys):
    import gwbinom.coefficients as coefficients

    before = triangle_rows(40)
    # a wrong rule, symmetric in j <-> n - j as the mirror needs: the
    # correction on every odd j of an even row, digit dominance or not
    monkeypatch.setattr(coefficients, "correction_parity", lambda n, j: int(n % 2 == 0 and j % 2))
    after = triangle_rows(40)
    closed = [[untwisted_closed(n, j) for j in range(n + 1)] for n in range(40)]
    assert after == [[c.value for c in row] for row in closed]
    assert _cli_triangle_classes(capsys, 40) == [[(c.value.rank, c.display) for c in row]
                                                 for row in closed]
    changed = {(n, j) for n, (row, old) in enumerate(zip(after, before))
               for j, (v, o) in enumerate(zip(row, old)) if v != o}
    assert changed == {(n, j) for n in range(0, 40, 2) for j in range(1, n, 2)
                       if not correction_parity(n, j)}
    assert (6, 3) in changed

    calls = []
    real_comb = coefficients.comb

    def counted(n, k):
        calls.append((n, k))
        return real_comb(n, k)

    monkeypatch.setattr(coefficients, "comb", counted)
    triangle_rows(50)
    assert calls == []
    untwisted_closed(5, 2)
    assert calls == [(5, 2)]


def test_every_class_comes_from_one_constructor(monkeypatch, capsys):
    # with _corrected patched, every closed form, oracle, triangle cell and
    # route returns its value, so no class is built any other way
    import gwbinom.coefficients as coefficients

    marker = gw_from_coeffs(-7, 1)
    calls = []
    monkeypatch.setattr(coefficients, "_corrected",
                        lambda rank, correction: calls.append((rank, correction)) or marker)
    assert untwisted_closed(6, 3).value == marker
    assert calls == [(20, 0)]
    assert untwisted_closed(8, 3).value == marker
    assert calls[-1] == (56, 1)
    assert untwisted_oracle(8, 3).value == marker
    assert untwisted_oracle(0, 0).value == marker
    assert twisted_closed(4).value == marker
    assert calls[-1] == (70, 1)
    assert twisted_oracle(3).value == marker
    assert all(v == marker for row in triangle_rows(12) for v in row)
    for twisted, routes in coefficients.ROUTES.items():
        n, j = (6, 3) if twisted else (8, 3)
        for name, route in routes:
            calls.clear()
            assert route(n, j, 2) == marker, (twisted, name)
            assert calls and calls[-1][0] == comb(n, j), (twisted, name)
    # the marker has no display, so the CLI's JSON is checked with one that has
    shown = gw_from_coeffs(40, 3)
    monkeypatch.setattr(coefficients, "_corrected", lambda rank, correction: shown)
    assert _cli_triangle_classes(capsys, 12) == [[(43, "42+u")] * (n + 1) for n in range(12)]


def test_closed_equals_oracle_small():
    for n in range(1, 13):
        for j in range(n + 1):
            assert untwisted_closed(n, j).value == untwisted_oracle(n, j).value
    for j in range(1, 8):
        assert twisted_closed(j).value == twisted_oracle(j).value


def test_oracle_equals_trace_form_sum():
    # third route: the value is the sum of the trace form classes of the
    # orbit sizes, one summand per orbit
    from gwbinom.gw import ZERO, trace_form_class
    from gwbinom.necklaces import enumerate_orbits, enumerate_twisted_orbits

    for n in range(1, 13):
        for j in range(n + 1):
            total = ZERO
            for rec in enumerate_orbits(n, j):
                total = total + trace_form_class(rec.period)
            assert total == untwisted_oracle(n, j).value, (n, j)
    for j in range(1, 8):
        total = ZERO
        for rec in enumerate_twisted_orbits(j):
            total = total + trace_form_class(rec.twisted_period)
        assert total == twisted_oracle(j).value, j


def test_vanishing_cases():
    # odd n, or even n with even j: no correction; odd j twisted: none either
    for n in range(1, 16, 2):
        for j in range(n + 1):
            assert untwisted_oracle(n, j).value.disc == SQUARE
    for n in range(2, 17, 2):
        for j in range(0, n + 1, 2):
            assert untwisted_oracle(n, j).value.disc == SQUARE
    for j in (1, 3, 5, 7, 9):
        assert twisted_oracle(j).value.disc == SQUARE


def test_verify_report_passes():
    report = verify(8, 4)
    assert report.ok
    assert report.first_divergence() is None
    assert len(report.cells) == sum(n + 1 for n in range(9)) + 4
    text = report.render_text()
    assert "VERIFY PASS" in text
    blob = report.to_json()
    assert blob["pass"] is True
    assert len(blob["cells"]) == len(report.cells)


def test_verify_trivial():
    report = verify(1, 0)
    assert report.ok and len(report.cells) == 3


def test_verify_detects_mutation(monkeypatch):
    import gwbinom.coefficients as coefficients

    real = coefficients.untwisted_closed

    def corrupted(n, j):
        if (n, j) == (4, 1):
            return real(4, 2)
        return real(n, j)

    monkeypatch.setattr(coefficients, "untwisted_closed", corrupted)
    report = coefficients.verify(6, 2)
    assert not report.ok
    bad = report.first_divergence()
    assert (bad.n, bad.j) == (4, 1)
    assert "DIVERGENCE" in report.render_text()


def test_verify_checks_raw_binomial_route(monkeypatch):
    import gwbinom.coefficients as coefficients

    monkeypatch.setattr(coefficients, "big_binomial", lambda a, b: 1)
    report = coefficients.verify(8, 1)
    assert not report.ok
    bad = report.first_divergence()
    assert not bad.twisted and not bad.match
    assert bad.closed == bad.oracle
    assert dict(bad.routes)["binomial"] != bad.closed
    assert "binomial=u" in report.render_text()


def test_verify_rejects_jobs_below_one():
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            verify(3, 1, jobs=jobs)


def test_verify_over_budget_fails_before_enumerating(monkeypatch):
    def no_enumeration(*args):
        raise AssertionError("enumeration started")

    monkeypatch.setattr("gwbinom.necklaces._necklaces", no_enumeration)
    monkeypatch.setattr("gwbinom.necklaces._lyndon_counts", no_enumeration)
    for max_n, max_j in ((25, 0), (4, 13)):
        with pytest.raises(EnumerationLimitError, match="budget"):
            verify(max_n, max_j)


def test_verify_clamps_pool_to_cpu_count(monkeypatch):
    import concurrent.futures

    asked = []

    class RecordingPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert verify(3, 1, jobs=64).ok
    assert all(w <= (os.cpu_count() or 1) for w in asked)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    asked.clear()
    verify(3, 3, jobs=64)  # four work items: the untwisted walk, twisted j = 1..3
    verify(3, 1, jobs=64)  # two work items
    verify(1, 0, jobs=64)  # one work item, run with no pool
    verify(3, 1, jobs=1)
    assert asked == [4, 2]


def test_row_walk_time_is_shared_across_its_cells(monkeypatch):
    import time

    import gwbinom.coefficients as coefficients

    walk = coefficients.even_orbit_counts
    count = coefficients.count_even_twisted_orbits

    def slow_walk(n):
        time.sleep(0.04)
        return walk(n)

    def slow_count(j):
        time.sleep(0.04)
        return count(j)

    monkeypatch.setattr(coefficients, "even_orbit_counts", slow_walk)
    monkeypatch.setattr(coefficients, "count_even_twisted_orbits", slow_count)
    cells = verify(4, 2).cells
    # one walk feeds the 2^5 - 1 masks of the untwisted cells with n <= 4
    untwisted = [c for c in cells if not c.twisted]
    assert len(untwisted) == 15
    assert sum(c.seconds for c in untwisted) >= 0.04
    assert all(c.seconds >= 0.04 * comb(c.n, c.j) / 31 for c in untwisted)
    # a twisted cell is a work item of its own and takes its whole count
    assert all(c.seconds >= 0.04 for c in cells if c.twisted)


def test_verify_walks_once_for_every_untwisted_row(monkeypatch):
    import gwbinom.necklaces as necklaces

    rows, walk = necklaces._lyndon_counts, necklaces._necklaces
    calls = []

    def counted_rows(n):
        calls.append(("rows", n))
        return rows(n)

    def counted(n, j):
        calls.append((n, j))
        return walk(n, j)

    monkeypatch.setattr(necklaces, "_lyndon_counts", counted_rows)
    monkeypatch.setattr(necklaces, "_necklaces", counted)
    assert verify(8, 3).ok
    # one row walk to max_n, and one gap walk per twisted j
    assert calls == [("rows", 8), (2, 1), (4, 2), (6, 3)]


def test_verify_parallel_matches_serial():
    serial = verify(6, 3)
    parallel = verify(6, 3, jobs=2)
    strip = lambda cells: [(c.n, c.j, c.twisted, c.closed, c.oracle, c.ok) for c in cells]
    assert strip(serial.cells) == strip(parallel.cells)
    assert parallel.ok
