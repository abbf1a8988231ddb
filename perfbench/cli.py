"""The ``cli`` workload: each op is one cold ``python -m locint <command>``
subprocess on generated JSON documents, run one at a time.  Carriers have
at most 8 elements (|C(L)| <= 8): at 16 elements the enumeration of C(L)
adds about 80 ms to a 160 ms cold op, and compute is meant to stay
negligible here.

Each round of 20 ops holds two valid ops of each of the eight commands, two
malformed documents (exit 2), one undefined operation (exit 3) and one input
that exercises a known defect.  The equal weights of the commands are a
choice, not a measurement: nothing records how often users run each one,
and equal weights give every ``cli.cold_ms.<command>`` as many samples.

The defects stay in the mix and count as failed ops: ``decompose --k 0``
ends in a traceback where exit 2 or 3 is expected, and the rational
``"1e5"`` is accepted where the documented grammar (``"p/q"`` or an
integer) calls for exit 2.  ``bridge`` spaces have
at most 3 points: on 12 points one op does not finish within the run length.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from random import Random

from locint import documents
from locint.cli import main as cli_main
from locint.errors import LocintError

from . import oracle
from .common import WORK, Op, child_env, require, same
from .gen import (
    blocks,
    divisor_spec,
    downset_spec,
    fmt,
    powerset_spec,
    random_poset_spec,
    rational,
    subset,
    subsets,
    weight,
)

COMMANDS = ("integrate", "indefinite", "canonicalize", "eval", "decompose", "congruences",
            "bridge", "validate")
MALFORMED = ("bad-json", "unknown-kind", "not-distributive", "unknown-ref",
             "incomplete-measure", "weights-not-boolean")
UNDEFINED = ("not-integrable", "indefinite-negative", "decompose-negative",
             "not-complemented")
DEFECTS = ("decompose-k0", "rational-1e5")
BLOCK = 60  # three rounds; a run of 20 s or more has 120+ ops, 12+ beyond p90


def setup(seed: int, tr):
    work = WORK / f"cli-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    return {"work": work, "env": child_env()}


def teardown(state):
    shutil.rmtree(state["work"], ignore_errors=True)


# -- generation ----------------------------------------------------------------


def ops(seed: int):
    rng = Random(f"cli-{seed}")
    i = 0
    r = 0
    while True:
        plan = [(c, None) for c in COMMANDS for _ in range(2)]
        plan += [("malformed", MALFORMED[(2 * r) % 6]), ("malformed", MALFORMED[(2 * r + 1) % 6]),
                 ("undefined", UNDEFINED[r % 4]), ("defect", DEFECTS[r % 2])]
        rng.shuffle(plan)
        for what, case in plan:
            if case is None:
                op = VALID[what](rng, rng.random() < 0.5)
                op.kind = what
            else:
                op = BAD[case](rng)
                op.kind = f"{what}:{case}"
                if what == "defect":
                    op.known_defect = case
            op.id = i
            yield op
            i += 1
        r += 1


def _op(command, files, args, codes=(0,), stdout=None, lines=(), payload=None, fmt_json=False):
    if fmt_json:
        args = list(args) + ["--format", "json"]
    return Op(0, command, {"command": command, "files": files, "args": list(args)},
              {"codes": tuple(codes), "stdout": stdout, "lines": list(lines), "json": payload})


def _lattice(rng, poset_only=False):
    r = rng.random()
    if poset_only or r < 0.5:
        return random_poset_spec(rng, rng.randint(2, 3), "poset")
    if r < 0.85:
        # one atom would be named "1", not by its atom name, so start at two
        return powerset_spec("B", "xyz"[:rng.randint(2, 3)])
    return divisor_spec(12)


def _blocks_ref(jset, keep):
    return "blocks:" + "|".join(",".join(b) for b in blocks(jset, keep))


def _sublocale_refs(spec):
    """(ref, keep-set Q of the sublocale) for refs the document grammar
    offers: open:a has Q = J(a), closed:a has Q = J - J(a)."""
    pts = frozenset(spec.points)
    out = [("L", pts), ("void", frozenset())]
    if spec.jset is None:
        named = [(a, frozenset({a})) for a in spec.points]
    else:
        named = list(spec.jset)
        js = dict(spec.jset)
        out += [(_blocks_ref(js, q), q) for q in subsets(spec.points)]
    for e, s in named:
        out += [(f"open:{e}", s), (f"closed:{e}", pts - s)]
    return out


def _measure(rng, spec, inf_probability=0.0):
    w = {p: weight(rng, inf_probability) for p in spec.points}
    if spec.jset is None:
        return w, {"on_open_weights": {p: fmt(v) for p, v in w.items()}}
    js = dict(spec.jset)
    values = {_blocks_ref(js, q): fmt(oracle.nonneg_sum(dict.fromkeys(q, 1), w, q))
              for q in subsets(spec.points)}
    return w, {"values": values}


def _sublocale_terms(rng, spec, nonneg=False):
    refs = _sublocale_refs(spec)
    terms = [(rational(rng, 0 if nonneg else -6, 6), rng.choice(refs))
             for _ in range(rng.randint(1, 4))]
    g = {p: sum((r for r, (_, q) in terms if p in q), Fraction(0)) for p in spec.points}
    return g, {"kind": "simple", "terms": [[str(r), ref] for r, (ref, _) in terms]}


def _element_terms(rng, spec, nonneg=False):
    """Overlapping terms over complemented elements of a poset lattice."""
    pts = spec.centre_points()
    names = spec.centre_names(dict(spec.jset))
    terms = [(rational(rng, 0 if nonneg else -6, 6), subset(rng, pts))
             for _ in range(rng.randint(1, 4))]
    return (oracle.sum_of_terms(pts, terms), names,
            {"kind": "simple", "terms": [[str(r), names[a]] for r, a in terms]})


def _valid_integrate(rng, as_json):
    spec = _lattice(rng)
    w, mu = _measure(rng, spec, 0.2)
    g, fn = _sublocale_terms(rng, spec)
    args = ["--lattice", "@lattice", "--measure", "@measure", "--function", "@function"]
    over_q = frozenset(spec.points)
    if rng.random() < 0.4:
        ref, over_q = rng.choice(_sublocale_refs(spec))
        args += ["--over", ref]
    pos, neg, cls, value = oracle.integral(g, w, over_q)
    files = {"lattice": spec.doc, "measure": mu, "function": fn}
    if value is None:
        return _op("integrate", files, args, codes=(3,), stdout="", fmt_json=as_json)
    if as_json:
        return _op("integrate", files, args, payload={
            "integral": fmt(value), "classification": cls,
            "positive_part": fmt(pos), "negative_part": fmt(neg)}, fmt_json=True)
    return _op("integrate", files, args, stdout=f"{fmt(value)}\n{cls}\n")


def _valid_indefinite(rng, as_json):
    spec = _lattice(rng)
    w, mu = _measure(rng, spec, 0.2)
    g, fn = _sublocale_terms(rng, spec, nonneg=True)
    total = fmt(oracle.nonneg_sum(g, w, spec.points))
    files = {"lattice": spec.doc, "measure": mu, "function": fn}
    args = ["--lattice", "@lattice", "--measure", "@measure", "--function", "@function"]
    if as_json:
        return _op("indefinite", files, args, payload={"values": {"L": total, "void": "0"},
                                                       "valid_measure": True}, fmt_json=True)
    return _op("indefinite", files, args, lines=[f"L -> {total}", "void -> 0"])


def _valid_canonicalize(rng, as_json):
    spec = _lattice(rng, poset_only=True)
    f, names, fn = _element_terms(rng, spec)
    terms = [[str(v), names[s]] for v, s in oracle.canonical_terms(f)]
    args = ["--lattice", "@lattice", "--function", "@function"]
    files = {"lattice": spec.doc, "function": fn}
    if as_json:
        return _op("canonicalize", files, args, payload={"terms": terms}, fmt_json=True)
    return _op("canonicalize", files, args,
               stdout="canonical form: " + " + ".join(f"{r}*chi({a})" for r, a in terms) + "\n")


def _valid_eval(rng, as_json):
    spec = _lattice(rng, poset_only=True)
    if rng.random() < 0.25:
        c = rational(rng)
        f, fn = {p: c for p in spec.centre_points()}, {"kind": "constant", "value": str(c)}
    else:
        f, _, fn = _element_terms(rng, spec)
    bp = [str(v) for v in sorted(set(f.values()))]
    files = {"lattice": spec.doc, "function": fn}
    args = ["--lattice", "@lattice", "--function", "@function"]
    if as_json:
        return _op("eval", files, args, payload={"breakpoints": bp}, fmt_json=True)
    return _op("eval", files, args, lines=["breakpoints: " + " ".join(bp)])


def _valid_decompose(rng, as_json):
    spec = _lattice(rng, poset_only=True)
    f, names, fn = _element_terms(rng, spec, nonneg=True)
    k = rng.randint(1, 8)
    top = names[frozenset(spec.centre_points())]
    rows, lines = [], []
    for step, cell, stage, residual in oracle.decomposition(f, k):
        terms = [[str(v), names[s]] for v, s in stage]
        rendered = terms[0][0] if len(terms) == 1 and terms[0][1] == top else \
            " + ".join(f"{r}*chi({a})" for r, a in terms)
        rows.append({"k": step, "cell": names[cell], "terms": terms,
                     "residual": str(residual), "closed_for": None})
        lines += [f"k={step} a_k={names[cell]} residual={residual}", f"f_{step} = {rendered}"]
    files = {"lattice": spec.doc, "function": fn}
    args = ["--lattice", "@lattice", "--function", "@function", "--k", str(k)]
    if as_json:
        return _op("decompose", files, args, payload={"steps": rows}, fmt_json=True)
    return _op("decompose", files, args, stdout="".join(line + "\n" for line in lines))


def _valid_congruences(rng, as_json):
    spec = _lattice(rng)
    n = 2 ** len(spec.points)
    if as_json:
        return _op("congruences", {"lattice": spec.doc}, ["--lattice", "@lattice"],
                   payload={"count": n}, fmt_json=True)
    return _op("congruences", {"lattice": spec.doc}, ["--lattice", "@lattice"],
               lines=[f"{n} congruences"])


def _valid_bridge(rng, as_json):
    pts = [f"p{i}" for i in range(rng.randint(1, 3))]
    lam = {p: weight(rng, 0.15) for p in pts}
    values = {p: rational(rng) for p in pts}
    args = ["--space", "@space", "--function", "@function"]
    over = frozenset(pts)
    if len(pts) > 1 and rng.random() < 0.4:  # a lone point is named "1"
        p = rng.choice(pts)
        over = frozenset({p})
        args += ["--over", p]
    _, _, cls, value = oracle.integral(values, lam, over)
    shown = "undefined" if value is None else fmt(value)
    files = {"space": {"points": pts, "algebra": "powerset",
                       "lambda": {p: fmt(v) for p, v in lam.items()}},
             "function": {"kind": "classical", "values": {p: str(v) for p, v in values.items()}}}
    if as_json:
        return _op("bridge", files, args, payload={
            "classical": shown, "pointfree": shown, "classification": cls, "equal": True},
            fmt_json=True)
    return _op("bridge", files, args, stdout=f"classical integral: {shown} ({cls})\n"
               f"pointfree integral: {shown} ({cls})\nexact agreement\n")


def _valid_validate(rng, as_json):
    spec = _lattice(rng)
    files = {"lattice": spec.doc}
    args = ["--lattice", "@lattice"]
    if rng.random() < 0.5:
        files["measure"] = _measure(rng, spec)[1]
        args += ["--measure", "@measure"]
    if rng.random() < 0.5:
        files["space"] = {"points": ["a", "b"], "algebra": "powerset",
                          "lambda": {"a": "1", "b": "2"}}
        args += ["--space", "@space"]
    if as_json:
        return _op("validate", files, args, payload={
            "lattice": {"elements": spec.size}, "valid": True}, fmt_json=True)
    return _op("validate", files, args, lines=["valid"])


VALID = {
    "integrate": _valid_integrate,
    "indefinite": _valid_indefinite,
    "canonicalize": _valid_canonicalize,
    "eval": _valid_eval,
    "decompose": _valid_decompose,
    "congruences": _valid_congruences,
    "bridge": _valid_bridge,
    "validate": _valid_validate,
}

B4 = powerset_spec("B4", "xy")
N5 = {"kind": "poset", "elements": ["0", "a", "b", "c", "1"],
      "leq": [["0", "a"], ["a", "b"], ["b", "1"], ["0", "c"], ["c", "1"]]}
CHAIN3 = downset_spec("chain3", ["0", "1"], [("0", "1")])
INTEGRATE = ["--lattice", "@lattice", "--measure", "@measure", "--function", "@function"]


def _bad(command, files, args, codes):
    return _op(command, files, args, codes=codes, stdout="")


def _bad_json(rng):
    return _bad("integrate", {"lattice": '{"kind": "powerset", "atoms": ["x"',
                              "measure": {"on_open_weights": {"x": "1"}},
                              "function": {"kind": "constant", "value": "1"}}, INTEGRATE, (2,))


def _unknown_kind(rng):
    return _bad("congruences", {"lattice": {"kind": "tree", "atoms": ["x"]}},
                ["--lattice", "@lattice"], (2,))


def _not_distributive(rng):
    return _bad("validate", {"lattice": N5}, ["--lattice", "@lattice"], (2,))


def _unknown_ref(rng):
    return _bad("integrate", {"lattice": B4.doc, "measure": _measure(rng, B4)[1],
                              "function": {"kind": "simple", "terms": [["1", "open:zz"]]}},
                INTEGRATE, (2,))


def _incomplete_measure(rng):
    spec = random_poset_spec(rng, rng.randint(2, 3), "poset")
    mu = _measure(rng, spec)[1]
    mu["values"].pop(next(iter(mu["values"])))
    return _bad("integrate", {"lattice": spec.doc, "measure": mu,
                              "function": {"kind": "constant", "value": "1"}}, INTEGRATE, (2,))


def _weights_not_boolean(rng):
    return _bad("integrate", {"lattice": CHAIN3.doc,
                              "measure": {"on_open_weights": {"d0": "1"}},
                              "function": {"kind": "constant", "value": "1"}}, INTEGRATE, (2,))


def _not_integrable(rng):
    return _bad("integrate", {"lattice": B4.doc,
                              "measure": {"on_open_weights": {"x": "inf", "y": "inf"}},
                              "function": {"kind": "simple", "terms": [
                                  [str(rational(rng, 1, 6)), "open:x"],
                                  [str(rational(rng, -6, -1)), "open:y"]]}}, INTEGRATE, (3,))


def _indefinite_negative(rng):
    return _bad("indefinite", {"lattice": B4.doc, "measure": _measure(rng, B4)[1],
                               "function": {"kind": "simple", "terms": [
                                   [str(rational(rng, -6, -1)), "open:x"]]}}, INTEGRATE, (3,))


def _decompose_negative(rng):
    spec = random_poset_spec(rng, rng.randint(2, 3), "poset")
    negative = {"kind": "constant", "value": str(rational(rng, -6, -1))}
    return _bad("decompose", {"lattice": spec.doc, "function": negative},
                ["--lattice", "@lattice", "--function", "@function"], (3,))


def _not_complemented(rng):
    return _bad("canonicalize", {"lattice": CHAIN3.doc,
                                 "function": {"kind": "simple", "terms": [["1", "d0"]]}},
                ["--lattice", "@lattice", "--function", "@function"], (3,))


def _decompose_k0(rng):
    spec = random_poset_spec(rng, rng.randint(2, 3), "poset")
    _, _, fn = _element_terms(rng, spec, nonneg=True)
    return _bad("decompose", {"lattice": spec.doc, "function": fn},
                ["--lattice", "@lattice", "--function", "@function", "--k", "0"], (2, 3))


def _rational_1e5(rng):
    return _bad("integrate", {"lattice": B4.doc, "measure": _measure(rng, B4)[1],
                              "function": {"kind": "simple", "terms": [["1e5", "open:x"]]}},
                INTEGRATE, (2,))


BAD = {
    "bad-json": _bad_json,
    "unknown-kind": _unknown_kind,
    "not-distributive": _not_distributive,
    "unknown-ref": _unknown_ref,
    "incomplete-measure": _incomplete_measure,
    "weights-not-boolean": _weights_not_boolean,
    "not-integrable": _not_integrable,
    "indefinite-negative": _indefinite_negative,
    "decompose-negative": _decompose_negative,
    "not-complemented": _not_complemented,
    "decompose-k0": _decompose_k0,
    "rational-1e5": _rational_1e5,
}


# -- execution -----------------------------------------------------------------


def prepare(state, op):
    """Write the op's documents and resolve the argument vector."""
    d = op.data
    folder = state["work"] / f"op{op.id}"
    folder.mkdir(exist_ok=True)
    paths = {}
    for role, doc in d["files"].items():
        path = folder / f"{role}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        paths[role] = str(path)
    d["paths"] = paths
    d["argv"] = [d["command"]] + [paths[a[1:]] if a.startswith("@") else a for a in d["args"]]


def run(state, op, tr):
    argv = op.data["argv"]
    with tr.span("cli.cold." + argv[0]):
        proc = subprocess.run([sys.executable, "-m", "locint", *argv], capture_output=True,
                              text=True, env=state["env"], timeout=120)
    return proc.returncode, proc.stdout


LOADERS = {"lattice": documents.load_lattice, "space": documents.load_space}


def check(state, op, out, tr):
    code, stdout = out
    want = op.expect
    argv = op.data["argv"]
    for role, path in op.data["paths"].items():
        with tr.span("documents.load"):
            try:
                doc = documents.load_json(path)
                if role in LOADERS:
                    LOADERS[role](doc)
            except LocintError:  # malformed documents are part of the mix
                pass
    buf_out, buf_err = io.StringIO(), io.StringIO()
    with tr.span("cli.main"), contextlib.redirect_stdout(buf_out), \
            contextlib.redirect_stderr(buf_err):
        try:
            in_code = cli_main(argv)
        except SystemExit as exc:
            in_code = exc.code
        except Exception:  # a traceback exits 1 in the cold process too
            in_code = 1
    require(code in want["codes"], f"exit code of {argv[0]}", code, want["codes"])
    same("exit code vs in-process cli.main", code, in_code)
    same("stdout vs in-process cli.main", stdout, buf_out.getvalue())
    if want["stdout"] is not None:
        same("stdout", stdout, want["stdout"])
    lines = stdout.splitlines()
    for line in want["lines"]:
        require(line in lines, "output line", lines, line)
    if want["json"] is not None:
        _subset("json", json.loads(stdout), want["json"])


def _subset(where, got, want):
    if isinstance(want, dict):
        require(isinstance(got, dict), where, got, want)
        for k, v in want.items():
            require(k in got, f"{where}.{k}", None, v)
            _subset(f"{where}.{k}", got[k], v)
    else:
        same(where, got, want)
