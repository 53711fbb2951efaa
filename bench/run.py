"""The gwbinom benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is taken from ./src.
Workloads, metrics and bounds are declared in BENCHMARK.json; bench/README.md
says why each workload exists and which metric each layer should move.

--trace 0 runs the workload's op in a fresh interpreter, over and over
(a closed loop, one client) for S seconds, after timing a trivial op several
times as the set-up cost, and reports the end-to-end metrics.  Op times are
rescaled to a nominal host speed by a reference loop timed between ops.  --trace 1
runs the traced passes of bench/traced.py in fresh interpreters and reports
the per-layer metrics, the share of the pass no span covers (residual) and
the tracing overhead.  Every op's output is checked.  A summary goes to
stdout, a full record to bench/out/, and the last stdout line is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_RUNS = 11  # timed set-up ops per run, after one untimed warm-up
MIN_OPS = 3  # ops per run even when one op outlasts --seconds
UNTRACED_OPS = 3  # untraced ops a traced run compares itself against
IMPORT_RUNS = 7  # fresh interpreters per side for cli.import_s
# reference() on the host the bounds were set on (2 vCPU Intel Xeon under
# KVM, Python 3.11.7) takes about this long; op times are rescaled to it.
REFERENCE_NOMINAL_S = 0.13

# Traced jobs: (kind, sizes...).  The home jobs are a workload's own inputs;
# probe jobs supply, on small inputs, the per-layer metrics a workload does
# not exercise.  A probe runs only when no home job has its kind.
HOME_JOBS = {
    "verify-sweep": [("verify", 20, 11), ("heap", 20, 10), ("cell", 20, 10), ("pool", 20, 11)],
    "catalog-22": [("catalog", 22, 11), ("heap", 22, 11)],
    "closed-forms": [("closed", 300, 300, 100)],
}
PROBE_JOBS = [("verify", 12, 7), ("catalog", 16, 8), ("closed", 40, 40, 40),
              ("heap", 16, 8), ("cell", 12, 6), ("pool", 12, 7)]


class BenchError(Exception):
    """The benchmark cannot run or a traced job broke; no result is printed."""


@dataclass
class Sample:
    code: int
    out: bytes
    err: bytes
    wall: float
    cpu: float  # user + system, the process and the children it waited for
    rss_mb: float  # peak resident set of the process and those children
    started: float


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # same str hashing, hence same dict/set layout, every run
    env.pop("GWBINOM_MAX_N", None)  # the ops need the default enumeration cap
    return env


def spawn(args: list[str]) -> Sample:
    """Run one child to exit; wall time runs from spawn to reaping."""
    started = time.perf_counter()
    p = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                         env=child_env(), cwd=ROOT)
    err: list[bytes] = []
    reader = threading.Thread(target=lambda: err.append(p.stderr.read()))
    reader.start()
    out = p.stdout.read()
    reader.join()
    _, status, ru = os.wait4(p.pid, 0)
    wall = time.perf_counter() - started
    p.returncode = os.waitstatus_to_exitcode(status)
    p.stdout.close()
    p.stderr.close()
    return Sample(p.returncode, out, err[0], wall, ru.ru_utime + ru.ru_stime,
                  ru.ru_maxrss / 1024, started)


def run_op(argv) -> Sample:
    return spawn([sys.executable, "-m", "gwbinom", *argv])


def environment(seed: int) -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((line.split(":", 1)[1].strip() for line in f
                          if line.startswith("model name")), model)
    except OSError:
        pass
    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spread(values: list[float]) -> str:
    return (f"median {statistics.median(values):.4f} (min {min(values):.4f},"
            f" max {max(values):.4f}; n={len(values)})")


def checked_op(argv, check, problems: list, keep: list) -> Sample:
    """Run and check one op.  Only the first correct output is kept (in
    `keep`): a child is vforked, so the parent's peak RSS enters the child's
    ru_maxrss, and holding every output would inflate peak_rss_mb."""
    sample = run_op(argv)
    problem = wl.op_problem(check, sample.code, sample.out)
    problems.append(problem)
    if problem is None and not keep:
        keep.append(sample.out)
    sample.out = b""
    return sample


def reference() -> float:
    """Seconds this process takes to enumerate the rotation orbits of
    20-bead, 10-blue masks in plain Python (Gosper steps, rotations, sets):
    the same kind of work as the oracle, in the benchmark's own code, so
    that no change to src/ moves it.  It is the yardstick for host speed."""
    start = time.perf_counter()
    n = 20
    full = (1 << n) - 1
    seen = set()
    records = []
    mask = (1 << 10) - 1
    while mask <= full:
        if mask not in seen:
            orbit = {mask}
            m = mask
            for _ in range(n - 1):
                m = ((m << 1) | (m >> (n - 1))) & full
                orbit.add(m)
            seen |= orbit
            records.append((min(orbit), len(orbit)))
        low = mask & -mask
        ripple = mask + low
        mask = (((ripple ^ mask) >> 2) // low) | ripple
    records.sort()
    return time.perf_counter() - start


def measure(workload: wl.Workload, seconds: int):
    """Set-up samples, then ops until `seconds` have passed.

    The op times are rescaled to a nominal host speed: each op's wall and
    CPU time are multiplied by REFERENCE_NOMINAL_S over the mean of the
    reference() timings taken just before and just after it."""
    run_op(wl.SETUP_ARGV)  # compiles bytecode on a fresh checkout; untimed
    problems: list[str | None] = []
    good_setup: list[bytes] = []
    good_out: list[bytes] = []
    setups = [checked_op(wl.SETUP_ARGV, wl.check_setup, problems, good_setup)
              for _ in range(SETUP_RUNS)]
    ops: list[Sample] = []
    refs = [reference()]
    deadline = time.perf_counter() + seconds
    while len(ops) < MIN_OPS or time.perf_counter() < deadline:
        ops.append(checked_op(workload.argv, workload.check, problems, good_out))
        refs.append(reference())

    scales = [2 * REFERENCE_NOMINAL_S / (a + b) for a, b in zip(refs, refs[1:])]
    setup_times = [s.wall for s in setups]
    walls = [s.wall * k for s, k in zip(ops, scales)]
    cpus = [s.cpu * k for s, k in zip(ops, scales)]
    rss = [s.rss_mb for s in ops]
    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "cpu_s": statistics.median(cpus),
        "units_per_s": workload.units / wall,
        "peak_rss_mb": statistics.median(rss),
    }
    lines = [
        f"set-up ({' '.join(wl.SETUP_ARGV)}), not rescaled: {spread(setup_times)} s",
        f"op ({' '.join(workload.argv)}), closed loop, 1 client:",
        f"  reference loop: {spread(refs)} s (nominal {REFERENCE_NOMINAL_S} s)",
        f"  wall_s, rescaled: {spread(walls)} s",
        f"    as measured: {spread([s.wall for s in ops])} s",
        f"  cpu_s, rescaled: {spread(cpus)} s",
        f"    as measured: {spread([s.cpu for s in ops])} s",
        f"  peak_rss_mb: {spread(rss)} MB",
        f"  units_per_s: {metrics['units_per_s']:.1f} {workload.unit_name}/s"
        f" ({workload.units} per op / median rescaled wall)",
    ]

    # the checker must count corrupted copies of real outputs as failed ops
    selftest = ("no correct output to corrupt" if not (good_out and good_setup)
                else wl.checker_self_test(workload, good_out[0], good_setup[0]))
    lines.append(f"checker self-test ({workload.corrupt.__name__}, exit 1, set-up byte flip):"
                 f" {'FAILED: ' + selftest if selftest else 'every corruption counted as failed'}")
    attempted = len(setups) + len(ops)
    if selftest:
        problems.append(f"checker self-test: {selftest}")
        attempted += 1
    record = {
        "setup": [{"wall": s.wall, "code": s.code} for s in setups],
        "ops": [{"wall": s.wall, "cpu": s.cpu, "rss_mb": s.rss_mb, "code": s.code} for s in ops],
        "reference_s": refs,
    }
    return metrics, problems, attempted, lines, record


def run_job(job: tuple, seed: int) -> tuple[dict, Sample]:
    kind, *sizes = job
    args = [sys.executable, str(BENCH / "traced.py"), kind, *map(str, sizes), "--seed", str(seed)]
    sample = spawn(args)
    if sample.code != 0:
        raise BenchError(f"traced job {job} exited {sample.code}:\n{sample.err.decode(errors='replace')}")
    return json.loads(sample.out.decode().rstrip("\n").rsplit("\n", 1)[-1]), sample


def run_traced_job(job: tuple, seed: int) -> tuple[dict, Sample]:
    """Metrics and problems of one traced job, and its process sample."""
    if job[0] != "pool":
        return run_job(job, seed)
    # pool speedup: in-process verify at jobs=1 over jobs=2, each in a fresh
    # interpreter so that neither starts with warm caches
    serial, sample = run_job(("inproc", *job[1:], 1), seed)
    parallel, _ = run_job(("inproc", *job[1:], 2), seed)
    result = {"metrics": {"coefficients.pool_speedup": serial["seconds"] / parallel["seconds"]},
              "problems": serial["problems"] + parallel["problems"],
              "pool_base": {"sweep": list(job[1:]), "jobs1_s": serial["seconds"],
                            "jobs2_s": parallel["seconds"]}}
    return result, sample


def import_seconds() -> tuple[float, list[float], list[float]]:
    """Median fresh-interpreter `import gwbinom.cli` minus a bare interpreter."""
    imports, bare = [], []
    for _ in range(IMPORT_RUNS):
        imports.append(spawn([sys.executable, "-c", "import gwbinom.cli"]).wall)
        bare.append(spawn([sys.executable, "-c", "pass"]).wall)
    return statistics.median(imports) - statistics.median(bare), imports, bare


def trace(workload: wl.Workload, seed: int):
    """The per-layer metrics of one workload, from fresh-interpreter passes."""
    problems: list[str | None] = []
    untraced_ops = [checked_op(workload.argv, workload.check, problems, [])
                    for _ in range(UNTRACED_OPS)]
    attempted = len(untraced_ops)

    home = HOME_JOBS[workload.name]
    home_kinds = {job[0] for job in home}
    jobs = home + [job for job in PROBE_JOBS if job[0] not in home_kinds]
    metrics: dict = {}
    record: dict = {"jobs": []}
    pass_record = pass_sample = None
    for job in jobs:
        result, sample = run_traced_job(job, seed)
        attempted += 1
        problems.append("; ".join(result["problems"]) or None)
        for name, value in result["metrics"].items():
            metrics.setdefault(name, value)  # home jobs run first and win
        record["jobs"].append({"job": list(job), "home": job in home, **result})
        if "spans" in result and pass_record is None:
            pass_record, pass_sample = result, sample

    metrics["cli.import_s"], imports, bare = import_seconds()
    untraced = statistics.median(s.wall for s in untraced_ops)
    traced_op = pass_record["op_end"] - pass_sample.started - pass_record["repeated_s"]
    metrics["trace.residual_s"] = pass_record["residual_s"]
    metrics["trace.overhead_s"] = traced_op - untraced

    lines = [f"traced pass {list(home[0])} (fresh interpreter, seed-shuffled cell order):"]
    for layer, t in sorted(pass_record["self_s"].items()):
        label = "residual (no span)" if layer == "pass" else f"{layer} self time"
        lines.append(f"  {label}: {t:.4f} s")
    lines += [
        f"  (cli self time includes {pass_record['repeated_s']:.4f} s of layer calls cli.main"
        " repeats; cli.render_s leaves them out)",
        f"  traced op, spawn to end of cli.main, less the warm calls cli.main repeats:"
        f" {traced_op:.4f} s",
        f"  untraced op ({' '.join(workload.argv)}): {spread([s.wall for s in untraced_ops])} s",
        f"  tracing overhead: {metrics['trace.overhead_s']:+.4f} s",
        f"  cli.import_s: {metrics['cli.import_s']:.4f} s"
        f" (import {statistics.median(imports):.4f} - bare {statistics.median(bare):.4f})",
        "  probe jobs (small inputs, for layers this workload does not exercise): "
        + ", ".join(str(list(j)) for j in jobs if j not in home),
    ]
    pool = next((j["pool_base"] for j in record["jobs"] if "pool_base" in j), None)
    if pool:
        lines.append(f"  pool_speedup base: verify{tuple(pool['sweep'])} in-process,"
                     f" jobs=1 {pool['jobs1_s']:.3f} s / jobs=2 {pool['jobs2_s']:.3f} s")
    record.update(untraced_walls=[s.wall for s in untraced_ops], import_walls=imports, bare_walls=bare)
    return metrics, problems, attempted, lines, record


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = load_spec()
        if not (SRC / "gwbinom" / "__init__.py").is_file():
            raise BenchError(f"no package source at {SRC / 'gwbinom'}; run from a gwbinom checkout")
        workload = wl.WORKLOADS[args.workload]
        env = environment(args.seed)
        if args.trace:
            metrics, problems, attempted, lines, record = trace(workload, args.seed)
            declared = spec["per_layer"]
        else:
            metrics, problems, attempted, lines, record = measure(workload, args.seconds)
            declared = spec["end_to_end"]
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            raise BenchError(f"metrics not measured: {missing}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    failed = [p for p in problems if p]
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(f"gwbinom benchmark: workload {workload.name}, seed {args.seed},"
          f" trace {args.trace}, {args.seconds} s")
    print("environment: " + json.dumps(env))
    for line in lines:
        print(line)
    print(f"fail_rate: {len(failed)}/{attempted}")
    for p in failed:
        print(f"  FAILED: {p}")
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"workload": workload.name, "seconds": args.seconds, "trace": args.trace,
                    "environment": env, "result": result, "problems": failed, "record": record},
                   indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
