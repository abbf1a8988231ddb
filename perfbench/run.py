"""Seeded benchmark for locint.

    python3 perfbench/run.py --workload algebra|cli --seed N \\
        --seconds S --trace 0|1

One process, one caller, closed loop: each op starts when the previous one
has finished and been checked.  The op stream comes from the workload's
generator and the seed alone; every output is compared with an
independently computed expectation, and a wrong or unexpected result counts
as a failed op.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the same
op list twice: untraced, then traced with spans around every call the
benchmark makes into the library, and reports the per-layer metrics and the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# set up at least this many times and for at least this long; report the median
SETUP_REPEATS, SETUP_SECONDS = 5, 3.0
IMPORT_PROBE = ("import time; t = time.perf_counter(); import locint; "
                "print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("algebra", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_workloads():
    """The workloads import locint from this checkout's ``src``; refuse to
    run against any other copy."""
    src = ROOT / "src"
    if not (src / "locint" / "__init__.py").is_file():
        sys.exit(f"error: no locint sources under {src}")
    sys.path[:0] = [str(src), str(ROOT)]
    import locint
    if Path(locint.__file__).resolve().parent != src / "locint":
        sys.exit(f"error: imported locint from {locint.__file__}, not from {src}")
    from perfbench import algebra, cli
    return {"algebra": algebra, "cli": cli}


# -- set-up ---------------------------------------------------------------------------


def cold_import_seconds(env) -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    return float(out.stdout.strip())


def timed_setup(wl, seed, null, env):
    """(median set-up seconds over several set-ups, the last state).  One
    set-up is the import of locint in a fresh interpreter plus the
    in-process build of the workload's state."""
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_REPEATS or time.perf_counter() - start < SETUP_SECONDS:
        t0 = time.perf_counter()
        state = wl.setup(seed, null)
        in_process = time.perf_counter() - t0
        times.append(cold_import_seconds(env) + in_process)
    print(f"# setup_s: median of {len(times)} set-ups")
    return statistics.median(times), state


# -- reporting --------------------------------------------------------------------------


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; the
    benchmark may run from a copy that is not a repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def info(args, res, **extra) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_sha": git_sha(), "ops": len(res.latencies),
            "op_kinds": dict(sorted(res.kinds.items())), **extra}


def report_failures(res) -> bool:
    """Print failed ops; True when every failure is a named known defect."""
    defects = Counter(op.known_defect for op, _ in res.failures if op.known_defect)
    for op, msg in [(op, msg) for op, msg in res.failures if not op.known_defect][:20]:
        print(f"# failed op {op.id} ({op.kind}): {msg}")
    for name, n in sorted(defects.items()):
        print(f"# failed as known defect {name}: {n} op(s)")
    attempted = len(res.latencies)
    print(f"# error_rate {len(res.failures) / attempted:.4f} "
          f"({len(res.failures)} of {attempted} ops failed)")
    return all(op.known_defect for op, _ in res.failures)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, res, setup_s: float) -> dict:
    lat_ms = sorted(1000 * t for t in res.latencies)
    n = len(lat_ms)
    p90 = statistics.quantiles(lat_ms, n=10)[8]
    beyond = sum(1 for t in lat_ms if t > p90)
    print(f"# op_p90_ms from {n} samples, {beyond} beyond it")
    # the cli workload's program runs in its child processes
    who = resource.RUSAGE_CHILDREN if wl.__name__.endswith(".cli") else resource.RUSAGE_SELF
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(n / sum(res.latencies), "1/s"),
        "op_p50_ms": metric(statistics.median(lat_ms), "ms"),
        "op_p90_ms": metric(p90, "ms"),
        "success_rate": metric(1 - len(res.failures) / n, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = import_workloads()
    from perfbench.common import WORK, child_env
    from perfbench.harness import per_layer, probe, run_pass
    from perfbench.trace import NullTracer, Tracer

    wl = workloads[args.workload]
    null = NullTracer()
    env = child_env()
    WORK.mkdir(parents=True, exist_ok=True)

    failed_checks = []
    if not args.trace:
        setup_s, state = timed_setup(wl, args.seed, null, env)
        try:
            res = run_pass(wl, state, wl.ops(args.seed), null, args.seconds)
        finally:
            wl.teardown(state)
        metrics = end_to_end(wl, res, setup_s)
        print("# info " + json.dumps(info(args, res)))
    else:
        state = wl.setup(args.seed, null)
        try:
            plain = run_pass(wl, state, wl.ops(args.seed), null, args.seconds)
        finally:
            wl.teardown(state)
        tr = Tracer()
        t0 = time.perf_counter()
        with tr.span("bench.setup"):
            state = wl.setup(args.seed, tr)
        try:
            res = run_pass(wl, state, wl.ops(args.seed), tr, max_ops=len(plain.latencies))
        finally:
            wl.teardown(state)
        wall = time.perf_counter() - t0
        probe_tr = probe(workloads, args.workload, args.seed, env)
        metrics, from_probe, failed_checks = per_layer(args.workload, tr, probe_tr, wall,
                                                       sum(plain.latencies))
        meta = info(args, res, untraced_ops=len(plain.latencies), timed_by_probe=from_probe,
                    failed_checks=failed_checks)
        out = WORK / f"trace-{args.workload}-{args.seed}.json"
        tr.dump(str(out), meta)
        print("# info " + json.dumps(meta))
        print(f"# spans written to {out}")
    correct = report_failures(res) and not failed_checks
    print(json.dumps({"correct": correct, "attempted": len(res.latencies),
                      "failed": len(res.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
