"""Tests for the benchmark itself.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench import algebra, cli, run  # noqa: E402
from perfbench.harness import PER_LAYER, per_layer, run_pass  # noqa: E402
from perfbench.trace import NullTracer, Tracer  # noqa: E402

WORKLOADS = {"algebra": algebra, "cli": cli}
NULL = NullTracer()


def canonical(x):
    """A form of generated data that does not depend on set iteration order
    (string hashing differs between processes)."""
    if dataclasses.is_dataclass(x):
        return canonical(dataclasses.asdict(x))
    if isinstance(x, dict):
        return sorted((repr(canonical(k)), canonical(v)) for k, v in x.items())
    if isinstance(x, (set, frozenset)):
        return sorted(canonical(v) for v in x)
    if isinstance(x, (list, tuple)):
        return [canonical(v) for v in x]
    if isinstance(x, Fraction):
        return str(x)
    return repr(x) if isinstance(x, float) else x


def op_list(name, seed, n):
    return [canonical(op) for op in islice(WORKLOADS[name].ops(seed), n)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_same_ops(name):
    assert op_list(name, 3, 120) == op_list(name, 3, 120)
    assert op_list(name, 3, 120) != op_list(name, 4, 120)


def test_same_seed_same_ops_across_processes():
    """String hashing is randomised per process; the op lists must not be."""
    code = ("import json, sys; sys.path[:0] = ['src', '.']; "
            "from perfbench.test_perfbench import op_list; "
            "print(json.dumps([op_list(n, 5, 60) for n in ('algebra', 'cli')]))")
    outs = [subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, text=True,
                           capture_output=True, env=dict(os.environ, PYTHONHASHSEED=s)).stdout
            for s in ("1", "2")]
    assert outs[0] == outs[1]


def first(name, kind):
    return next(op for op in WORKLOADS[name].ops(7) if op.kind == kind)


def failures(name, op, state=None):
    wl = WORKLOADS[name]
    state = wl.setup(7, NULL) if state is None else state
    try:
        return run_pass(wl, state, iter([op]), NULL, max_ops=1).failures
    finally:
        wl.teardown(state)


def bump(value):
    return Fraction(1) if value is None or not isinstance(value, Fraction) else value + 1


@pytest.fixture(scope="module")
def algebra_state():
    return algebra.setup(7, NULL)


@pytest.mark.parametrize("kind", sorted(set(algebra.ROUND)))
def test_algebra_ops_pass(kind, algebra_state):
    assert failures("algebra", first("algebra", kind), algebra_state) == []


def test_corrupted_expectation_fails(algebra_state):
    op = first("algebra", "integrate")
    pos, neg, cls, value = op.expect
    op.expect = (pos, neg, cls, bump(value))
    assert len(failures("algebra", op, algebra_state)) == 1

    op = first("algebra", "canonicalize")
    op.expect = op.expect[1:] + op.expect[:1] if len(op.expect) > 1 else ()
    assert len(failures("algebra", op, algebra_state)) == 1

    op = first("cli", "congruences")
    assert failures("cli", op) == []
    want = op.expect
    if want["json"] is not None:
        want["json"]["count"] += 1
    else:
        want["lines"] = [f"{int(want['lines'][0].split()[0]) + 1} congruences"]
    assert len(failures("cli", op)) == 1


def test_known_defects_count_as_failures():
    ops = [first("cli", "defect:decompose-k0"), first("cli", "defect:rational-1e5")]
    for op in ops:
        found = failures("cli", op)
        assert len(found) == 1 and found[0][0].known_defect == op.known_defect


def test_cli_round_composition():
    kinds = [op.kind for op in islice(cli.ops(1), 20)]
    assert sum(k in cli.COMMANDS for k in kinds) == 16
    assert sum(k.startswith("defect:") for k in kinds) == 1


def test_algebra_round_follows_verify_calls():
    counts = Counter(algebra.ROUND)
    assert counts["decompose"] == 1
    for kind, (calls, per_op) in algebra.VERIFY_CALLS.items():
        assert abs(counts[kind] - calls / per_op / 78) <= 0.5


def test_failed_layer_checks_are_reported():
    """A traced run whose focus layers are not the majority of layer time
    fails its check, and layers it never reaches count 0 calls."""
    tr, probe_tr = Tracer(), Tracer()
    with tr.span("bench.op"):
        with tr.span("lattice.build"):
            sum(range(10000))
        with tr.span("simple.ring"):
            pass
    for _, _, _, how in PER_LAYER:
        if how[0] == "mean_ms":
            with probe_tr.span(how[1]):
                pass
    wall = tr.spans[0][2] - tr.spans[0][1]
    out, from_probe, failed = per_layer("algebra", tr, probe_tr, wall, wall)
    assert len(failed) == 1 and "focus" in failed[0]
    assert out["simple.ring_calls"]["value"] == 1 and "simple.ring_ms" not in from_probe
    assert out["bridge.check_calls"]["value"] == 0 and "bridge.check_ms" in from_probe


def test_refuses_to_run_without_the_sources(tmp_path):
    """In a directory holding only the benchmark it exits non-zero and
    prints no result."""
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    (tmp_path / "perfbench").mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_spans_self_time():
    tr = Tracer()
    with tr.span("bench.op"):
        with tr.span("simple.ring"):
            pass
    selfs = tr.self_times()
    whole = tr.spans[0][2] - tr.spans[0][1]
    assert selfs["bench.op"][0] + selfs["simple.ring"][0] == pytest.approx(whole)
    assert tr.spans[1][3] == 0


def test_benchmark_json_matches_the_run():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in bench["workloads"]} <= set(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == \
        [row[:3] for row in PER_LAYER]
    res = run_pass(algebra, algebra.setup(7, NULL), algebra.ops(7), NULL, max_ops=20)
    printed = run.end_to_end(algebra, res, 1.0)
    assert sorted((m["name"], m["unit"]) for m in bench["end_to_end"]) == \
        sorted((k, v["unit"]) for k, v in printed.items())
