"""The benchmark's operations, their work counts and their output checks.

Every operation ("op") is one `python -m gwbinom ...` call in a fresh
interpreter.  Its output is checked against values pinned at the commit
that introduced the benchmark; an op that exits non-zero or fails its
check counts as failed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

SETUP_ARGV = ("coeff", "--n", "8", "--j", "3")
SETUP_FIRST_LINE = "55+u"

VERIFY_ARGV = ("verify", "--max-n", "20", "--twisted-max-j", "11", "--format", "json")
VERIFY_CELLS = 242
# sha256 of the compact JSON list of [n, j, twisted, closed, oracle] per cell,
# in report order, with the per-cell and total `seconds` fields left out.
VERIFY_DIGEST = "e509737ee13e143ab1bf2ac0bf6cb704394c27e79bdbf412cce30c704a4f96e4"
VERIFY_ORBITS = 111_321
VERIFY_TWISTED_ORBITS = 45_351

CATALOG_ARGV = ("necklaces", "--n", "22", "--j", "11", "--classify", "--format", "json")
CATALOG_SHA256 = "b7ce49a837a6c3d63635c685ef395696f9e1672a5dcbd9f091b6b511032a535e"
CATALOG_ORBITS = 32_066

TRIANGLE_ROWS = 300
TRIANGLE_ARGV = ("triangle", "--rows", str(TRIANGLE_ROWS), "--format", "json")
TRIANGLE_SHA256 = "fb1799fa0cb13323fe6b53d8c66ffa48de211c95a5377235d11a4056f1967e7e"
TRIANGLE_CELLS = TRIANGLE_ROWS * (TRIANGLE_ROWS + 1) // 2


def verify_digest(report: dict) -> str:
    rows = [[c["n"], c["j"], c["twisted"], c["closed"], c["oracle"]] for c in report["cells"]]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def verify_problem(report: dict, cells: int | None, digest: str | None) -> str | None:
    """Why a verify JSON report is wrong, or None.  `cells` and `digest`
    are skipped when None (sweeps other than the pinned one)."""
    if report.get("pass") is not True:
        return "pass is not true"
    if cells is not None and len(report["cells"]) != cells:
        return f"{len(report['cells'])} cells, expected {cells}"
    bad = [c for c in report["cells"] if c.get("match") is not True]
    if bad:
        return f"{len(bad)} cells with match != true, first (n={bad[0]['n']}, j={bad[0]['j']})"
    if digest is not None and verify_digest(report) != digest:
        return "cell digest differs from the pinned one"
    return None


def check_verify(out: bytes) -> str | None:
    try:
        report = json.loads(out)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    return verify_problem(report, VERIFY_CELLS, VERIFY_DIGEST)


def check_sha256(expected: str) -> Callable[[bytes], str | None]:
    def check(out: bytes) -> str | None:
        got = hashlib.sha256(out).hexdigest()
        return None if got == expected else f"sha256 {got[:16]}..., expected {expected[:16]}..."

    return check


def check_setup(out: bytes) -> str | None:
    first = out.decode(errors="replace").split("\n", 1)[0]
    return None if first == SETUP_FIRST_LINE else f"first line {first!r}, expected {SETUP_FIRST_LINE!r}"


def flip_byte(out: bytes, at: int | None = None) -> bytes:
    """The output with one bit flipped in byte `at` (default: the middle one)."""
    k = len(out) // 2 if at is None else at
    return out[:k] + bytes([out[k] ^ 1]) + out[k + 1 :]


def unmatch_cell(out: bytes) -> bytes:
    """A verify report with one cell's `match` set to false."""
    report = json.loads(out)
    report["cells"][len(report["cells"]) // 2]["match"] = False
    return (json.dumps(report, indent=2) + "\n").encode()


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    units: int  # work units one op completes
    unit_name: str
    check: Callable[[bytes], str | None]
    corrupt: Callable[[bytes], bytes]  # for the checker self-test


WORKLOADS = {
    w.name: w
    for w in (
        Workload("verify-sweep", VERIFY_ARGV, VERIFY_CELLS, "cells verified",
                 check_verify, unmatch_cell),
        Workload("catalog-22", CATALOG_ARGV, CATALOG_ORBITS, "orbits catalogued",
                 check_sha256(CATALOG_SHA256), flip_byte),
        Workload("closed-forms", TRIANGLE_ARGV, TRIANGLE_CELLS, "triangle cells",
                 check_sha256(TRIANGLE_SHA256), flip_byte),
    )
}


def op_problem(check: Callable[[bytes], str | None], returncode: int, out: bytes) -> str | None:
    """Why an op failed, or None when it exited 0 with correct output."""
    if returncode != 0:
        return f"exit code {returncode}"
    return check(out)


def checker_self_test(workload: Workload, good_out: bytes, good_setup: bytes) -> str | None:
    """Feed the checker corrupted copies of real outputs; each must count as a
    failed op.  Returns what went wrong, or None when every corruption was caught."""
    cases = [
        ("the op's output", workload.check, 0, good_out, True),
        (f"the op's output, corrupted by {workload.corrupt.__name__}",
         workload.check, 0, workload.corrupt(good_out), False),
        ("the op's output with exit code 1", workload.check, 1, good_out, False),
        ("the set-up output with its first byte flipped", check_setup, 0,
         flip_byte(good_setup, 0), False),
    ]
    for label, check, code, out, want_ok in cases:
        ok = op_problem(check, code, out) is None
        if ok != want_ok:
            return f"checker {'rejected' if want_ok else 'accepted'} {label}"
    return None
