"""One traced pass of the benchmark, run in a fresh interpreter.

    python3 bench/traced.py <job> <size...> --seed N

Jobs:
  verify MAX_N MAX_J     the `verify` op's work: cold enumerations, then their
                         warm consumers (closed forms, oracles), then the CLI
  catalog N J            the `necklaces --classify` op's work, then encode/decode
  closed ROWS LUCAS_N BIGP_N
                         the `triangle` op's work, then Lucas/Kummer grids
  heap N J               heap peak of one cold enumerate_orbits call (tracemalloc)
  cell N J               one cold verify cell, closed and oracle
  inproc MAX_N MAX_J JOBS
                         in-process verify() wall time at the given jobs

Spans are taken from this file, around calls into the package's public
functions; nothing inside the package is instrumented.  They are kept in
memory and printed once, as the last line of stdout, together with the
metrics the pass derives from them and the checks it made.  Cell orders are
shuffled with --seed, so a change that relies on ascending order shows.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import sys
import time
from fractions import Fraction

import workloads as wl


class Tracer:
    """Spans (name, start, end, parent) of one pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op_end: float | None = None  # when the op-equivalent part of the pass ended

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(sid)
        try:
            yield
        finally:
            self.spans[sid][2] = time.perf_counter()
            self._open.pop()

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _ in self.spans if n == name)

    def self_times(self) -> dict[str, float]:
        """Self time per layer (the span name's first dotted part): each span's
        duration minus the part its child spans cover."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent is not None:
                own[parent] -= end - start
        layers: dict[str, float] = {}
        for (name, *_), t in zip(self.spans, own):
            layer = name.split(".", 1)[0]
            layers[layer] = layers.get(layer, 0.0) + t
        return layers


def run_cli(tr: Tracer, cli, argv) -> bytes:
    """cli.main(argv) in this process, stdout captured as the op would print it."""
    buf = io.StringIO()
    with tr.span("cli.main"), contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"cli.main{tuple(argv)} returned {code}")
    return buf.getvalue().encode()


def pass_verify(tr, rng, cli, max_n: int, max_j: int):
    from gwbinom.arith import big_binomial, digit_dominates
    from gwbinom.coefficients import twisted_closed, twisted_oracle, untwisted_closed, untwisted_oracle
    from gwbinom.gw import gw_display
    from gwbinom.necklaces import enumerate_orbits, enumerate_twisted_orbits

    cells = [(n, j) for n in range(max_n + 1) for j in range(n + 1)]
    twisted = list(range(1, max_j + 1))
    rng.shuffle(cells)
    rng.shuffle(twisted)
    orbits = twisted_orbits = 0
    for n, j in cells:
        if n:  # the oracle needs no enumeration for the empty necklace
            with tr.span("necklaces.enumerate_orbits"):
                orbits += len(enumerate_orbits(n, j))
    for j in twisted:
        with tr.span("necklaces.enumerate_twisted_orbits"):
            twisted_orbits += len(enumerate_twisted_orbits(j))
    with tr.span("coefficients.untwisted_closed"):
        closed = {(n, j): (untwisted_closed(n, j), untwisted_closed(n, n - j)) for n, j in cells}
    with tr.span("coefficients.twisted_closed"):
        tclosed = {j: twisted_closed(j) for j in twisted}
    with tr.span("coefficients.untwisted_oracle"):
        oracle = {(n, j): untwisted_oracle(n, j) for n, j in cells}
    with tr.span("coefficients.twisted_oracle"):
        toracle = {j: twisted_oracle(j) for j in twisted}
    argv = ("verify", "--max-n", str(max_n), "--twisted-max-j", str(max_j), "--format", "json")
    out = run_cli(tr, cli, argv)
    tr.op_end = time.perf_counter()

    pairs = [(Fraction(j - 1, 2), Fraction(n - 2, 2)) for n, j in cells]
    with tr.span("arith.digit_dominates"):
        for x, y in pairs:
            digit_dominates(x, y)
    with tr.span("arith.big_binomial"):
        for x, y in pairs:
            big_binomial(y, x)
    values = [c.value for c, _ in closed.values()]
    with tr.span("gw.display"):
        for v in values:
            gw_display(v)

    pinned = (max_n, max_j) == (20, 11)
    with tr.span("bench.check"):
        problems = [wl.verify_problem(json.loads(out), wl.VERIFY_CELLS if pinned else len(cells) + max_j,
                                      wl.VERIFY_DIGEST if pinned else None)]
        problems += [f"closed != oracle at {c}" for c in cells if closed[c][0].value != oracle[c].value]
        problems += [f"twisted closed != oracle at j={j}"
                     for j in twisted if tclosed[j].value != toracle[j].value]
        if pinned:
            problems.append(None if orbits == wl.VERIFY_ORBITS else f"{orbits} orbits")
            problems.append(None if twisted_orbits == wl.VERIFY_TWISTED_ORBITS
                            else f"{twisted_orbits} twisted orbits")
    warm = ("coefficients.untwisted_closed", "coefficients.twisted_closed",
            "coefficients.untwisted_oracle", "coefficients.twisted_oracle")
    metrics = {
        "necklaces.enumerate_orbits_s": tr.total("necklaces.enumerate_orbits"),
        "necklaces.orbits": orbits,
        "necklaces.enumerate_twisted_orbits_s": tr.total("necklaces.enumerate_twisted_orbits"),
        "necklaces.twisted_orbits": twisted_orbits,
        "coefficients.untwisted_closed_s": tr.total("coefficients.untwisted_closed"),
        "coefficients.untwisted_oracle_self_s": tr.total("coefficients.untwisted_oracle"),
        "coefficients.twisted_oracle_self_s": tr.total("coefficients.twisted_oracle"),
        "arith.digit_dominates_s": tr.total("arith.digit_dominates"),
        "arith.big_binomial_s": tr.total("arith.big_binomial"),
        "gw.display_s": tr.total("gw.display"),
    }
    return metrics, warm, problems


def pass_catalog(tr, rng, cli, n: int, j: int):
    from gwbinom.necklaces import classify_flip_fixed, enumerate_orbits, orbit_catalog
    from gwbinom.partitions import decode, encode

    with tr.span("necklaces.enumerate_orbits"):
        records = enumerate_orbits(n, j)
    with tr.span("necklaces.classify_flip_fixed"):
        classify_flip_fixed(n, j)
    with tr.span("necklaces.orbit_catalog"):
        catalog = orbit_catalog(n, j)
    out = run_cli(tr, cli, ("necklaces", "--n", str(n), "--j", str(j), "--classify", "--format", "json"))
    tr.op_end = time.perf_counter()

    order = [r for r in records if 0 < r.j < r.size]  # monochrome orbits have no runs
    rng.shuffle(order)
    with tr.span("partitions.encode_decode"):
        back = [decode(encode(r)) for r in order]

    with tr.span("bench.check"):
        problems = [f"encode/decode round trip changed {sum(a != b for a, b in zip(order, back))} orbits"
                    if back != order else None]
        problems.append(None if len(catalog["orbits"]) == len(records) else "catalog size != orbit count")
        if (n, j) == (22, 11):
            problems.append(wl.check_sha256(wl.CATALOG_SHA256)(out))
            problems.append(None if len(records) == wl.CATALOG_ORBITS else f"{len(records)} orbits")
    metrics = {
        "necklaces.enumerate_orbits_s": tr.total("necklaces.enumerate_orbits"),
        "necklaces.orbits": len(records),
        "necklaces.classify_flip_fixed_s": tr.total("necklaces.classify_flip_fixed"),
        "necklaces.orbit_catalog_s": tr.total("necklaces.orbit_catalog"),
        "partitions.encode_decode_s": tr.total("partitions.encode_decode"),
    }
    return metrics, ("necklaces.classify_flip_fixed", "necklaces.orbit_catalog"), problems


def pass_closed(tr, rng, cli, rows: int, lucas_n: int, bigp_n: int):
    from math import comb

    from gwbinom.arith import big_binomial, digit_dominates, kummer_valuation, lucas_binom_mod_p
    from gwbinom.coefficients import triangle_to_json, untwisted_closed
    from gwbinom.gw import gw_display

    cells = [(n, j) for n in range(rows) for j in range(n + 1)]
    rng.shuffle(cells)
    with tr.span("coefficients.untwisted_closed"):
        values = {(n, j): untwisted_closed(n, j) for n, j in cells}
    table = [[values[n, j] for j in range(n + 1)] for n in range(rows)]
    with tr.span("coefficients.triangle_to_json"):
        obj = triangle_to_json(table)
    out = run_cli(tr, cli, ("triangle", "--rows", str(rows), "--format", "json"))
    tr.op_end = time.perf_counter()

    pairs = [(Fraction(j - 1, 2), Fraction(n - 2, 2)) for n, j in cells]
    with tr.span("arith.digit_dominates"):
        for x, y in pairs:
            digit_dominates(x, y)
    with tr.span("arith.big_binomial"):
        for x, y in pairs:
            big_binomial(y, x)
    shown = [values[c].value for c in cells]
    with tr.span("gw.display"):
        for v in shown:
            gw_display(v)

    grid = [(p, n, m) for p in (2, 3, 5, 7) for n in range(lucas_n + 1) for m in range(n + 1)]
    grid += [(65537, n, m) for n in range(bigp_n + 1) for m in range(n + 1)]
    rng.shuffle(grid)
    with tr.span("arith.lucas_binom_mod_p"):
        residues = [lucas_binom_mod_p(p, n, m) for p, n, m in grid]
    with tr.span("arith.kummer_valuation"):
        valuations = [kummer_valuation(p, n, m) for p, n, m in grid]

    def v(p, x):
        e = 0
        while x % p == 0:
            x //= p
            e += 1
        return e

    with tr.span("bench.check"):
        wrong = sum(1 for (p, n, m), r, e in zip(grid, residues, valuations)
                    if r != comb(n, m) % p or e != v(p, comb(n, m)))
        problems = [f"{wrong} Lucas/Kummer values differ from math.comb" if wrong else None]
        problems.append(None if out == (json.dumps(obj, indent=2) + "\n").encode()
                        else "CLI triangle differs from triangle_to_json")
        if rows == wl.TRIANGLE_ROWS:
            problems.append(wl.check_sha256(wl.TRIANGLE_SHA256)(out))
    metrics = {
        "coefficients.untwisted_closed_s": tr.total("coefficients.untwisted_closed"),
        "coefficients.triangle_to_json_s": tr.total("coefficients.triangle_to_json"),
        "arith.digit_dominates_s": tr.total("arith.digit_dominates"),
        "arith.big_binomial_s": tr.total("arith.big_binomial"),
        "gw.display_s": tr.total("gw.display"),
        "arith.lucas_s": tr.total("arith.lucas_binom_mod_p"),
        "arith.kummer_s": tr.total("arith.kummer_valuation"),
    }
    return metrics, ("coefficients.untwisted_closed", "coefficients.triangle_to_json"), problems


PASSES = {"verify": pass_verify, "catalog": pass_catalog, "closed": pass_closed}


def traced_pass(job: str, sizes: list[int], seed: int) -> dict:
    tr = Tracer()
    rng = random.Random(seed)
    with tr.span("pass"):
        with tr.span("cli.import"):
            import gwbinom.cli as cli
        metrics, warm, problems = PASSES[job](tr, rng, cli, *sizes)
    # cli.main repeats the warm layer calls timed just before it; what is left
    # of its span is argument parsing and rendering (a computed figure).
    repeated = sum(tr.total(name) for name in warm)
    metrics["cli.render_s"] = tr.total("cli.main") - repeated
    root = tr.spans[0]
    covered = sum(end - start for _, start, end, parent in tr.spans if parent == 0)
    return {
        "metrics": metrics,
        "problems": [p for p in problems if p],
        "spans": tr.spans,
        "self_s": tr.self_times(),
        "residual_s": (root[2] - root[1]) - covered,
        "op_end": tr.op_end,
        "repeated_s": repeated,
    }


def heap_peak(n: int, j: int) -> dict:
    """Heap growth to the peak during one cold enumerate_orbits(n, j) call.

    tracemalloc slows the call several-fold, so this runs in its own pass and
    never feeds a timing."""
    import tracemalloc

    from gwbinom.necklaces import enumerate_orbits

    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    records = enumerate_orbits(n, j)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return {"metrics": {"necklaces.enumerate_orbits_peak_mb": (peak - base) / 2**20},
            "problems": [] if records else ["no orbits"]}


def cold_cell(n: int, j: int) -> dict:
    """The work `verify` does for one untwisted cell, with cold caches."""
    from gwbinom.coefficients import untwisted_closed, untwisted_oracle

    start = time.perf_counter()
    closed = untwisted_closed(n, j)
    oracle = untwisted_oracle(n, j)
    untwisted_closed(n, n - j)
    seconds = time.perf_counter() - start
    return {"metrics": {"coefficients.slowest_cell_s": seconds},
            "problems": [] if closed.value == oracle.value else [f"closed != oracle at ({n}, {j})"]}


def inproc_verify(max_n: int, max_j: int, jobs: int) -> dict:
    from gwbinom.coefficients import verify

    start = time.perf_counter()
    report = verify(max_n, max_j, jobs=jobs)
    seconds = time.perf_counter() - start
    cells = (max_n + 1) * (max_n + 2) // 2 + max_j
    return {"seconds": seconds,
            "problems": [p for p in [wl.verify_problem(report.to_json(), cells, None)] if p]}


JOBS = {"heap": heap_peak, "cell": cold_cell, "inproc": inproc_verify}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("job", choices=(*PASSES, *JOBS))
    parser.add_argument("sizes", type=int, nargs="+")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.job in PASSES:
        result = traced_pass(args.job, args.sizes, args.seed)
    else:
        result = JOBS[args.job](*args.sizes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
