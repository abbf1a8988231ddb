"""The closed loop, the per-layer metrics and the layer probe."""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from collections import Counter

from . import algebra, cli
from .common import Mismatch
from .trace import Tracer

# Layers each workload is meant to load; the traced run reports their share
# of all layer self time.
FOCUS = {"algebra": ("simple", "cutfunction", "integrate", "bridge"),
         "cli": ("cli", "documents")}

# Every traced run must report every per-layer metric, but no workload
# reaches every layer.  The mean time of a span the workload never records
# is taken from a probe that runs, after the replay, the set-up and the
# first round of the other workload.  The probe's figures are listed as
# such on the output; calls, counters and ratios of layers the workload
# does not reach are reported as 0.
PROBE = {"algebra": ("cli",), "cli": ("algebra",)}
PROBE_OPS = {"algebra": len(algebra.ROUND), "cli": 20}
PROBE_REPEATS = 3
COVERAGE = (0.95, 1.0)  # share of the traced wall time the spans must cover

# name, unit, better, how it is computed
PER_LAYER = [
    ("lattice.build_ms", "ms", "lower", ("mean_ms", "lattice.build")),
    ("lattice.build_calls", "count", "higher", ("calls", "lattice.build")),
    ("congruence.frame_ms", "ms", "lower", ("mean_ms", "congruence.frame")),
    ("congruence.frame_calls", "count", "higher", ("calls", "congruence.frame")),
    ("congruence.frame_size", "count", "higher", ("counter", "congruence.frame_size")),
    ("congruence.facade_ms", "ms", "lower", ("mean_ms", "congruence.facade")),
    ("congruence.resolve_ms", "ms", "lower", ("mean_ms", "congruence.resolve")),
    ("measure.validate_ms", "ms", "lower", ("mean_ms", "measure.validate")),
    ("measure.validate_calls", "count", "higher", ("calls", "measure.validate")),
    ("measure.pairs_checked", "count", "lower", ("counter", "measure.pairs_checked")),
    ("simple.canonicalize_ms", "ms", "lower", ("mean_ms", "simple.canonicalize")),
    ("simple.canonicalize_calls", "count", "higher", ("calls", "simple.canonicalize")),
    ("simple.canonicalize_terms_ratio", "ratio", "lower",
     ("ratio", "simple.terms_out", "simple.terms_in")),
    ("simple.ring_ms", "ms", "lower", ("mean_ms", "simple.ring")),
    ("simple.ring_calls", "count", "higher", ("calls", "simple.ring")),
    ("simple.to_cut_ms", "ms", "lower", ("mean_ms", "simple.to_cut")),
    ("simple.decompose_ms", "ms", "lower", ("mean_ms", "simple.decompose")),
    ("simple.decompose_calls", "count", "higher", ("calls", "simple.decompose")),
    ("cutfunction.add_ms", "ms", "lower", ("mean_ms", "cutfunction.add")),
    ("cutfunction.add_calls", "count", "higher", ("calls", "cutfunction.add")),
    ("cutfunction.mul_ms", "ms", "lower", ("mean_ms", "cutfunction.mul")),
    ("cutfunction.mul_calls", "count", "higher", ("calls", "cutfunction.mul")),
    ("cutfunction.bp_kept_ratio", "ratio", "higher",
     ("ratio", "cutfunction.bp_kept", "cutfunction.bp_candidates")),
    ("cutfunction.order_ms", "ms", "lower", ("mean_ms", "cutfunction.order")),
    ("cutfunction.limits_ms", "ms", "lower", ("mean_ms", "cutfunction.limits")),
    ("integrate.simple_ms", "ms", "lower", ("mean_ms", "integrate.simple")),
    ("integrate.simple_calls", "count", "higher", ("calls", "integrate.simple")),
    ("integrate.general_ms", "ms", "lower", ("mean_ms", "integrate.general")),
    ("integrate.indefinite_ms", "ms", "lower", ("mean_ms", "integrate.indefinite")),
    ("integrate.not_integrable_calls", "count", "higher",
     ("counter", "integrate.not_integrable")),
    ("bridge.space_ms", "ms", "lower", ("mean_ms", "bridge.space")),
    ("bridge.check_ms", "ms", "lower", ("mean_ms", "bridge.check")),
    ("bridge.check_calls", "count", "higher", ("calls", "bridge.check")),
    ("documents.load_ms", "ms", "lower", ("mean_ms", "documents.load")),
    ("documents.load_calls", "count", "higher", ("calls", "documents.load")),
    ("cli.interp_ms", "ms", "lower", ("mean_ms", "cli.interp")),
    ("cli.import_ms", "ms", "lower", ("mean_ms", "cli.import")),
    ("cli.main_ms", "ms", "lower", ("mean_ms", "cli.main")),
    *[(f"cli.cold_ms.{c}", "ms", "lower", ("mean_ms", f"cli.cold.{c}")) for c in cli.COMMANDS],
    ("bench.gen_ms", "ms", "lower", ("mean_ms", "bench.gen")),
    ("bench.check_ms", "ms", "lower", ("mean_ms", "bench.check")),
    ("bench.op_ms", "ms", "lower", ("mean_ms", "bench.op")),
    ("trace.overhead_ratio", "ratio", "lower", ("overhead",)),
    ("trace.coverage", "ratio", "higher", ("coverage",)),
    ("trace.focus_share", "ratio", "higher", ("focus",)),
]


class Pass:
    """Results of one pass over an op stream."""

    def __init__(self):
        self.latencies = []
        self.failures = []   # (op, message)
        self.kinds = Counter()


def run_pass(wl, state, stream, tr, seconds=None, max_ops=None) -> Pass:
    """Closed loop, one caller: run ops from ``stream`` until ``seconds``
    have passed, stopping only after a whole block of the workload's stream
    (so every run has the same op mix), or until ``max_ops`` ran.  Only the
    library calls of an op are timed; generation and checks are not."""
    res = Pass()
    start = time.perf_counter()
    while True:
        n = len(res.latencies)
        if max_ops is not None and n >= max_ops:
            break
        if (seconds is not None and n % wl.BLOCK == 0 and n > 0
                and time.perf_counter() - start >= seconds):
            break
        with tr.span("bench.gen"):
            op = next(stream)
            wl.prepare(state, op)
        tr.op = op.id
        error = None
        t0 = time.perf_counter()
        try:
            with tr.span("bench.op"):
                out = wl.run(state, op, tr)
        except Exception as exc:  # an unexpected exception is a failed op
            error = f"{type(exc).__name__}: {exc}"
        res.latencies.append(time.perf_counter() - t0)
        res.kinds[op.kind] += 1
        if error is None:
            with tr.span("bench.check"):
                try:
                    wl.check(state, op, out, tr)
                except Mismatch as exc:
                    error = str(exc)
                except Exception as exc:  # a check that cannot read the output
                    error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            res.failures.append((op, error))
        tr.op = None
    return res


def probe(workloads, current, seed, env) -> Tracer:
    """Spans of the bare and the importing interpreter (reference figures)
    and of the first ops of the workloads in ``PROBE[current]``."""
    tr = Tracer()
    for _ in range(PROBE_REPEATS):
        with tr.span("cli.interp"):
            subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=120)
        with tr.span("cli.import"):
            subprocess.run([sys.executable, "-c", "import locint"], env=env, check=True,
                           timeout=120)
    for name in PROBE[current]:
        wl = workloads[name]
        with tr.span("bench.setup"):
            state = wl.setup(seed, tr)
        try:
            res = run_pass(wl, state, wl.ops(seed), tr, max_ops=PROBE_OPS[name])
        finally:
            wl.teardown(state)
        for op, msg in res.failures:
            if not op.known_defect:
                print(f"# probe op {name}/{op.id} ({op.kind}) failed: {msg}")
    return tr


def layer_of(span: str) -> str:
    return span.split(".", 1)[0]


def per_layer(workload, tr: Tracer, probe_tr: Tracer, wall: float, untraced_s: float):
    """(per-layer metrics of the traced replay, names of the metrics timed
    by the probe, failed checks).  The checks are the coverage check and
    the focus layers' majority of layer self time."""
    main, extra = tr.self_times(), probe_tr.self_times()
    layer_time = Counter()
    for name, selfs in main.items():
        layer_time[layer_of(name)] += sum(selfs)
    total = sum(layer_time.values())
    program = sum(v for k, v in layer_time.items() if k != "bench")
    traced_op = sum(end - start for name, start, end, _, _ in tr.spans if name == "bench.op")
    derived = {
        "overhead": traced_op / untraced_s,
        "coverage": total / wall,
        "focus": sum(layer_time[k] for k in FOCUS[workload]) / program,
    }
    out, from_probe = {}, []
    for name, unit, _, how in PER_LAYER:
        kind = how[0]
        if kind == "mean_ms":
            xs = main.get(how[1])
            if not xs:
                xs = extra[how[1]]
                from_probe.append(name)
            value = 1000 * statistics.fmean(xs)
        elif kind == "calls":
            value = len(main.get(how[1], ()))
        elif kind == "counter":
            value = tr.counters[how[1]]
        elif kind == "ratio":
            value = tr.counters[how[1]] / max(tr.counters[how[2]], 1)
        else:
            value = derived[kind]
        out[name] = {"value": value, "unit": unit}

    print("# layer self time in the traced replay (s, share of layer time):")
    for layer, secs in layer_time.most_common():
        share = "" if layer == "bench" else f"  {secs / program:.3f}"
        print(f"#   {layer:12s} {secs:9.3f}{share}")
    failed = []
    focus = "+".join(FOCUS[workload])
    if derived["focus"] <= 0.5:
        failed.append(f"focus layers {focus} are not the majority of layer time")
    print(f"# focus layers {focus}: {derived['focus']:.3f} of layer time")
    lo, hi = COVERAGE
    if not lo <= derived["coverage"] <= hi + 1e-9:
        failed.append(f"span coverage {derived['coverage']:.3f} is outside [{lo}, {hi}]")
    print(f"# coverage check: span self time {total:.3f} s of traced wall {wall:.3f} s = "
          f"{derived['coverage']:.3f}")
    print(f"# trace overhead: traced op time {traced_op:.3f} s / untraced {untraced_s:.3f} s")
    print("# measure.pairs_checked is computed from |C|, not counted")
    print(f"# timed by the probe ({'+'.join(PROBE[workload])} ops and bare interpreters), "
          f"not by {workload}, whose calls, counters and ratios there are 0: "
          f"{', '.join(from_probe)}")
    for msg in failed:
        print(f"# check failed: {msg}")
    return out, from_probe, failed
