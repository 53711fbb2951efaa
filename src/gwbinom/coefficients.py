"""Enriched binomial coefficients: closed forms, enumeration oracles, and
the cross-validation sweep.

The untwisted coefficient attached to (n, j) is the Grothendieck-Witt
class C(n, j) - (1 - u) * C((n-2)/2, (j-1)/2), fractional binomials
vanishing; since 2(1 - u) = 0 only the parity of the correction matters,
and by Lucas that parity is 1 exactly when (j-1)/2 digit-dominates into
(n-2)/2.  `verify` checks every cell by each route of its family in `ROUTES`.
The triangle walks each row's ranks with the exact integer step from
C(n, j) to C(n, j + 1) instead of a fresh binomial per cell, over the half
row only, and mirrors it.  Every class here, closed or oracle, untwisted or
twisted, is built by the one constructor _corrected from a rank and a
correction.  The oracles and `verify` import the necklaces module when they
run, so the closed forms and the triangle load none of it.

The independent oracle evaluates the same class as
C(n, j) + (u - 1) * (number of even-period rotation orbits of (n, j)
necklaces); the twisted analogue on balanced necklaces replaces plain
rotation by the rotate-then-color-swap action.  The twisted closed form
is C(2j, j) + (u - 1) * d(j) with d(j) = 1 exactly for j = 2, 4, 8, 16,
and so on; the degenerate j = 1 has two fixed necklaces and no
correction.
"""

from __future__ import annotations

import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, fields
from itertools import groupby
from math import comb

from .arith import (_require_balanced, _require_cell, _require_int, _require_positive,
                    big_binomial, digit_dominates)
from .gw import GWElem, SQUARE, gw_display, gw_from_coeffs, gw_to_json

MAX_ROWS = 1000  # rows^2 work and memory; 1000 rows as JSON: about 3-4 s, 0.21 GB (Python 3.11.7)


@dataclass(frozen=True, slots=True)
class EnrichedCoefficient:
    """A Grothendieck-Witt binomial value plus its provenance."""

    n: int
    j: int
    twisted: bool
    value: GWElem
    method: str  # "closed" or "oracle"

    def __post_init__(self) -> None:
        if self.method not in ("closed", "oracle"):
            raise ValueError(f"method must be 'closed' or 'oracle', got {self.method!r}")
        if self.twisted:
            _require_balanced(self.n, self.j)

    @property
    def display(self) -> str:
        return gw_display(self.value)

    def to_json(self) -> dict:
        out = {"n": self.n, "j": self.j, "twisted": self.twisted, "method": self.method}
        out.update(gw_to_json(self.value))
        return out


def correction_parity(n: int, j: int) -> int:
    """1 when (j-1)/2 digit-dominates into (n-2)/2 (both must be
    non-negative integers, i.e. j odd and n even), else 0.  Equals the
    parity of C((n-2)/2, (j-1)/2)."""
    _require_int(n, j)
    return 1 if n % 2 == 0 and j % 2 and digit_dominates((j - 1) // 2, (n - 2) // 2) else 0


def _corrected(rank: int, correction: int) -> GWElem:
    """The class rank + (u - 1) * correction, with rank the cell's C(n, j):
    the one constructor of every enriched class."""
    return gw_from_coeffs(rank - correction, correction)


def untwisted_closed(n: int, j: int) -> EnrichedCoefficient:
    """Closed-form enriched coefficient for j blues among n beads,
    evaluated through the digit-dominance parity of the correction.  The
    raw-binomial route is checked against it in `verify`."""
    _require_cell(n, j)
    return EnrichedCoefficient(n, j, False, _corrected(comb(n, j), correction_parity(n, j)),
                               "closed")


def untwisted_oracle(n: int, j: int) -> EnrichedCoefficient:
    """Enumeration oracle: C(n, j) + (u - 1) * (even-period orbit count)."""
    from .necklaces import count_even_orbits

    _require_cell(n, j)
    # the empty necklace (n = 0): a single orbit of odd period one
    even = count_even_orbits(n, j) if n else 0
    return EnrichedCoefficient(n, j, False, _corrected(comb(n, j), even), "oracle")


def twisted_correction_parity(j: int) -> int:
    """1 exactly for j = 2^m with m >= 1.

    These are the j with v2(C(2j, j)) = 1 apart from j = 1, whose two
    necklaces are each fixed by the twisted rotation, leaving no
    even-period orbits and hence no correction.
    """
    _require_int(j)
    return 1 if j >= 2 and j & (j - 1) == 0 else 0


def twisted_closed(j: int) -> EnrichedCoefficient:
    """Closed-form twisted coefficient: C(2j, j) + (u - 1) * correction."""
    _require_positive(j, "j")
    d = twisted_correction_parity(j)
    return EnrichedCoefficient(2 * j, j, True, _corrected(comb(2 * j, j), d), "closed")


def half_central_hyperbolic(j: int) -> GWElem:
    """The class (C(2j, j)/2) * (1 + u): half the central binomial times the
    hyperbolic-plane class.  Matches the twisted closed form for every
    j >= 2, and differs exactly at j = 1."""
    _require_positive(j, "j")
    c = comb(2 * j, j)
    if c % 2:
        raise RuntimeError(f"central binomial C({2*j},{j}) should be even")
    return gw_from_coeffs(c // 2, c // 2)


def twisted_oracle(j: int) -> EnrichedCoefficient:
    """Enumeration oracle over the rotate-then-color-swap action:
    C(2j, j) + (u - 1) * (even-twisted-period orbit count)."""
    from .necklaces import count_even_twisted_orbits

    even = count_even_twisted_orbits(j)
    return EnrichedCoefficient(2 * j, j, True, _corrected(comb(2 * j, j), even), "oracle")


def triangle_rows(rows: int) -> list[list[GWElem]]:
    """The classes of rows 0 .. rows-1 of the enriched triangle, via the
    closed form; at most MAX_ROWS rows.  rows[n][j] is the class of cell
    (n, j).

    Each row walks its half j <= n // 2 with the exact integer step
    C(n, j + 1) = C(n, j) * (n - j) // (j + 1), so no cell computes a fresh
    binomial, and mirrors it: cell (n, n - j) has the class of cell (n, j).
    The rank is symmetric, and so is the correction parity: for even n and
    odd j, (j-1)/2 and (n-j-1)/2 add up to (n-2)/2, so one digit-dominates
    into it exactly when the other does.  The mirrored cells share the half
    row's GWElems."""
    _require_positive(rows, "row count")
    if rows > MAX_ROWS:
        raise ValueError(f"{rows} rows exceed the triangle budget of {MAX_ROWS} (MAX_ROWS)")
    table = []
    for n in range(rows):
        values, rank = [], 1
        for j in range(n // 2 + 1):
            values.append(_corrected(rank, correction_parity(n, j)))
            rank = rank * (n - j) // (j + 1)
        table.append(values + values[:(n + 1) // 2][::-1])
    return table


def _triangle_json(rows: list[list[GWElem]]) -> dict:
    """The triangle's JSON from its class rows.  A mirrored cell (n, j),
    j > n - j, holding its partner's GWElem reuses the partner's rendering."""
    table = []
    for n, row in enumerate(rows):
        shown = []
        for j, v in enumerate(row):
            shown.append(shown[n - j] if j > n - j >= 0 and row[n - j] is v else gw_to_json(v))
        table.append([{"n": n, "j": j, **s} for j, s in enumerate(shown)])
    return {"rows": len(rows), "triangle": table}


def triangle_to_json(table: list[list[EnrichedCoefficient]]) -> dict:
    """The triangle's JSON from a table of coefficients, cell c at table[c.n][c.j]."""
    for n, row in enumerate(table):
        for j, c in enumerate(row):
            if (c.n, c.j) != (n, j):
                raise ValueError(f"cell (n={c.n}, j={c.j}) found at row {n}, position {j}")
    return _triangle_json([[c.value for c in row] for row in table])


# ---------------------------------------------------------------------------
# Verification sweep
# ---------------------------------------------------------------------------


def _binomial_route(n: int, j: int, even: int) -> GWElem:
    """The cell's class with the raw fractional binomial C((n-2)/2, (j-1)/2),
    vanishing off the integers, as its correction."""
    from fractions import Fraction

    return _corrected(comb(n, j), big_binomial(Fraction(n - 2, 2), Fraction(j - 1, 2)))


# Each family's routes in display order.  A route maps (n, j, even), with
# even the work item's even-orbit count, to the cell's class, and looks its
# function up by name when called, so a patched module attribute takes effect.
_ORACLE_ROUTE = ("oracle", lambda n, j, even: _corrected(comb(n, j), even))
ROUTES = {
    False: (
        ("closed", lambda n, j, even: untwisted_closed(n, j).value),
        ("binomial", _binomial_route),
        _ORACLE_ROUTE,
    ),
    True: (("closed", lambda n, j, even: twisted_closed(j).value), _ORACLE_ROUTE),
}


@dataclass(frozen=True)
class CellCheck:
    """One cell checked by every route of its family in `ROUTES`, plus the
    per-cell property checks.  match means all the routes agree.  The last
    three fields are for the divergence line and stay out of the JSON:
    routes holds each route's display in table order, even_orbits the
    cell's even-orbit count, and correction_parity the closed form's
    correction parity for the cell's family.

    seconds is the wall time of the cell's own checks plus its share of its
    work item's count: the untwisted cells with n <= max_n share one walk,
    each taking C(n, j) / (2^(max_n + 1) - 1) of it, and a twisted cell
    takes its whole count.  So a work item's cells add up to its count plus
    their checks."""

    n: int
    j: int
    twisted: bool
    closed: str
    oracle: str
    match: bool
    rank_ok: bool
    symmetry_ok: bool
    vanishing_ok: bool
    seconds: float
    routes: tuple[tuple[str, str], ...]
    even_orbits: int
    correction_parity: int

    @property
    def ok(self) -> bool:
        return self.match and self.rank_ok and self.symmetry_ok and self.vanishing_ok


_JSON_FIELDS = tuple(f.name for f in fields(CellCheck)
                     if f.name not in ("routes", "even_orbits", "correction_parity"))


def _check_item(item: tuple[bool, int]) -> list[CellCheck]:
    """Check the cells of one work item, (False, max_n) for every untwisted
    cell with n <= max_n or (True, j) for twisted cell j, against one count
    of the item: one walk for all the untwisted rows, one count for a
    twisted cell.  CellCheck says how the count's time is shared out."""
    from .necklaces import count_even_twisted_orbits, even_orbit_counts

    twisted, k = item
    cells = [(2 * k, k)] if twisted else [(n, j) for n in range(k + 1) for j in range(n + 1)]
    start = time.perf_counter()
    if twisted:
        even = [count_even_twisted_orbits(k)]
    else:
        even = [e for row in even_orbit_counts(k) for e in row]
    count_s = time.perf_counter() - start
    total = sum(comb(n, j) for n, j in cells)
    return [_cell_check(twisted, n, j, e, count_s * comb(n, j) / total)
            for (n, j), e in zip(cells, even)]


def _cell_check(twisted: bool, n: int, j: int, even: int, share: float) -> CellCheck:
    start = time.perf_counter()
    values = {name: route(n, j, even) for name, route in ROUTES[twisted]}
    closed, oracle = values["closed"], values["oracle"]
    # no correction survives on an odd twisted j, where swapping acts freely,
    # nor on an untwisted cell with n odd, or with n and j both even
    vanishes = j % 2 if twisted else n % 2 or j % 2 == 0
    return CellCheck(
        n, j, twisted, gw_display(closed), gw_display(oracle),
        all(v == closed for v in values.values()),
        all(v.rank == comb(n, j) for v in values.values()),
        twisted or closed == untwisted_closed(n, n - j).value,
        not vanishes or closed.disc == oracle.disc == SQUARE,
        time.perf_counter() - start + share,
        tuple((name, gw_display(v)) for name, v in values.items()),
        even,
        twisted_correction_parity(j) if twisted else correction_parity(n, j),
    )


@dataclass(frozen=True)
class VerifyReport:
    max_n: int
    twisted_max_j: int
    cells: tuple[CellCheck, ...]
    seconds: float

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cells)

    def first_divergence(self) -> CellCheck | None:
        return next((c for c in self.cells if not c.ok), None)

    def to_json(self) -> dict:
        return {
            "max_n": self.max_n,
            "twisted_max_j": self.twisted_max_j,
            "pass": self.ok,
            "cells": [{k: getattr(c, k) for k in _JSON_FIELDS} for c in self.cells],
            "seconds": self.seconds,
        }

    def render_text(self) -> str:
        lines = [
            f"closed-vs-oracle sweep: untwisted n <= {self.max_n},"
            f" twisted j <= {self.twisted_max_j}"
        ]
        untwisted = [c for c in self.cells if not c.twisted]
        twisted = [c for c in self.cells if c.twisted]
        # verify lists the untwisted cells by n, so each row is one run
        for n, group in groupby(untwisted, key=lambda c: c.n):
            row = list(group)
            ok = sum(1 for c in row if c.ok)
            total = sum(c.seconds for c in row)
            slowest = max(c.seconds for c in row)
            lines.append(
                f"  n={n:2d}  cells {ok}/{len(row)} ok"
                f"  total {total:.3f}s  slowest cell {slowest:.3f}s"
            )
        for c in twisted:
            status = "ok" if c.ok else "FAIL"
            lines.append(f"  twisted j={c.j:2d}  {c.closed:>12}  {status}  {c.seconds:.3f}s")
        held = lambda flag: "ok" if all(getattr(c, flag) for c in self.cells) else "FAIL"
        lines.append(f"properties: rank {held('rank_ok')}  row symmetry {held('symmetry_ok')}"
                     f"  vanishing {held('vanishing_ok')}")
        bad = self.first_divergence()
        if bad is not None:
            kind = "twisted" if bad.twisted else "untwisted"
            lines.append(
                f"DIVERGENCE at {kind} (n={bad.n}, j={bad.j}): "
                + " ".join(f"{name}={shown}" for name, shown in bad.routes)
                + f" match={bad.match} rank_ok={bad.rank_ok}"
                f" symmetry_ok={bad.symmetry_ok} vanishing_ok={bad.vanishing_ok}"
                f" even_orbits={bad.even_orbits} correction_parity={bad.correction_parity}"
            )
        lines.append(f"VERIFY {'PASS' if self.ok else 'FAIL'}"
                     f" ({len(self.cells)} cells, {self.seconds:.2f}s)")
        return "\n".join(lines)


def verify(max_n: int, twisted_max_j: int, jobs: int = 1) -> VerifyReport:
    """Check every route of `ROUTES` on every untwisted cell with n <= max_n
    and every twisted cell with j <= twisted_max_j.  The largest cell of
    each family is checked against the enumeration budget before any cell
    runs.  The work items are (False, max_n), one walk over the max_n-bead
    prenecklaces that feeds every untwisted cell, and (True, j) for each
    twisted cell, one count.  One map runs them across min(jobs, CPU count,
    item count) processes (none when that is 1), and the report keeps the
    cell order: untwisted by (n, j), then twisted by j."""
    from .necklaces import check_enumeration

    _require_int(max_n, twisted_max_j, jobs)
    if max_n < 1 or twisted_max_j < 0 or jobs < 1:
        raise ValueError("need max_n >= 1, twisted_max_j >= 0 and jobs >= 1")
    check_enumeration(max_n, max_n // 2)
    if twisted_max_j:
        check_enumeration(2 * twisted_max_j, twisted_max_j)
    start = time.perf_counter()
    items = [(False, max_n)] + [(True, j) for j in range(1, twisted_max_j + 1)]
    workers = min(jobs, os.cpu_count() or 1, len(items))
    pool = nullcontext()
    if workers > 1:
        # imported only here: the pool's modules add about 20 ms to a fresh interpreter
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
    with pool as executor:
        run = map if executor is None else executor.map
        results = [cell for cells in run(_check_item, items) for cell in cells]
    return VerifyReport(max_n, twisted_max_j, tuple(results), time.perf_counter() - start)
