"""Command-line front end: document ingestion, computation, verification.

Exit codes: 0 on success, 2 for document or axiom validation failures,
3 for operations undefined on the given inputs (missing complement,
non-integrable function).  Output is
deterministic for identical inputs and seed; rationals are printed fully
reduced as "p/q" or integers, extended values as "inf"/"-inf".  Each
command imports the layers it runs, so a cold start loads (and, with no
bytecode cache, compiles) only that command's closure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .documents import (
    load_classical_function,
    load_function,
    load_json,
    load_lattice,
    load_measure,
    load_space,
)
from .errors import LocintError, UndefinedOperation, ValidationFailure
from .lattice import chain_lattice


def _carrier_parts(args, need_frame: bool):
    if getattr(args, "lattice", None):
        lattice = load_lattice(load_json(args.lattice))
    else:
        lattice = chain_lattice(["0", "1"])
    frame = None
    if need_frame or getattr(args, "carrier", "lattice") == "congruence":
        frame = lattice.congruence_frame()
    return lattice, frame


def _emit(args, text_lines: List[str], payload) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def cmd_validate(args) -> int:
    lattice, frame = _carrier_parts(args, need_frame=bool(args.measure))
    report = {"lattice": {"elements": len(lattice.elements),
                          "bottom": lattice.bottom, "top": lattice.top,
                          "boolean": lattice.is_boolean()}}
    lines = [f"lattice: {len(lattice.elements)} elements, "
             f"bottom={lattice.bottom}, top={lattice.top}, "
             f"boolean={'yes' if lattice.is_boolean() else 'no'}"]
    if args.measure:
        mu = load_measure(load_json(args.measure), frame)
        report["measure"] = {"sublocales": mu.frame.size}
        lines.append(f"measure: valid on {mu.frame.size} sublocales "
                     "(M1-M3 by additivity over the atoms of S(L), M4 by finiteness)")
    if args.function:
        fn = load_function(load_json(args.function), lattice, frame)
        # a function is simple iff it is finite, and its ladders break at its coefficients
        kind = "extended" if fn.simple is None else "finite"
        breakpoints = fn.cut.breakpoints if fn.simple is None else fn.simple.coefficients()
        report["function"] = {"kind": kind,
                              "breakpoints": [str(b) for b in breakpoints]}
        lines.append(f"function: valid, {kind}, {len(breakpoints)} breakpoints")
    if args.space:
        space = load_space(load_json(args.space))
        report["space"] = {"points": len(space.points), "algebra": len(space.algebra)}
        lines.append(f"space: {len(space.points)} points, "
                     f"algebra of {len(space.algebra)} sets, lambda additive")
    lines.append("valid")
    report["valid"] = True
    _emit(args, lines, report)
    return 0


def cmd_congruences(args) -> int:
    _, frame = _carrier_parts(args, need_frame=True)
    rows = []
    for theta in frame.congruences:
        labels = frame.labels_of(theta)
        tags = [f"nabla:{a}" for a in labels["nabla"]] + [f"delta:{a}" for a in labels["delta"]]
        rows.append({"partition": theta.partition_name(),
                     "labels": tags,
                     "sublocale": frame.ref_name(theta),
                     "blocks": theta.n_blocks})
    lines = [f"{frame.size} congruences"]
    for row in rows:
        tags = " ".join(row["labels"]) if row["labels"] else "-"
        lines.append(f"{row['partition']}  labels: {tags}  sublocale: {row['sublocale']}")
    _emit(args, lines, {"count": frame.size, "congruences": rows})
    return 0


def cmd_canonicalize(args) -> int:
    lattice, frame = _carrier_parts(args, need_frame=False)
    fn = load_function(load_json(args.function), lattice, frame)
    g = fn.as_simple()
    terms = [[str(r), a] for r, a in g.terms]
    lines = ["canonical form: " + " + ".join(f"{t[0]}*chi({t[1]})" for t in terms)]
    _emit(args, lines, {"terms": terms})
    return 0


def cmd_eval(args) -> int:
    lattice, frame = _carrier_parts(args, need_frame=False)
    fn = load_function(load_json(args.function), lattice, frame)
    cut = fn.cut
    bp = [str(b) for b in cut.breakpoints]
    lines = ["breakpoints: " + (" ".join(bp) if bp else "(none)")]
    if cut.breakpoints:
        lines.append(f"upper[p < {bp[0]}] = {cut.upper[0]}")
        for i in range(1, len(cut.upper) - 1):
            lines.append(f"upper[{bp[i-1]} <= p < {bp[i]}] = {cut.upper[i]}")
        lines.append(f"upper[p >= {bp[-1]}] = {cut.upper[-1]}")
        lines.append(f"lower[q <= {bp[0]}] = {cut.lower[0]}")
        for i in range(1, len(cut.lower) - 1):
            lines.append(f"lower[{bp[i-1]} < q <= {bp[i]}] = {cut.lower[i]}")
        lines.append(f"lower[q > {bp[-1]}] = {cut.lower[-1]}")
    else:
        lines.append(f"upper = {cut.upper[0]}")
        lines.append(f"lower = {cut.lower[0]}")
    _emit(args, lines, {"breakpoints": bp, "upper": list(cut.upper), "lower": list(cut.lower)})
    return 0


def cmd_integrate(args) -> int:
    from .integrate import integrate_general, integrate_simple
    from .rationals import format_extended

    lattice, frame = _carrier_parts(args, need_frame=True)
    fn = load_function(load_json(args.function), lattice, frame)
    mu = load_measure(load_json(args.measure), frame)
    over = frame.resolve_ref(args.over) if args.over else None
    if fn.simple is None:
        value = integrate_general(fn.cut, mu, over)
        lines = [format_extended(value), "general"]
        payload = {"integral": format_extended(value), "classification": "general"}
    else:
        value, report = integrate_simple(fn.simple, mu, over)
        lines = [format_extended(value), report.classification]
        payload = {"integral": format_extended(value),
                   "classification": report.classification,
                   "positive_part": format_extended(report.positive_part),
                   "negative_part": format_extended(report.negative_part)}
    _emit(args, lines, payload)
    return 0


def cmd_indefinite(args) -> int:
    from .integrate import indefinite_integral
    from .rationals import format_extended

    lattice, frame = _carrier_parts(args, need_frame=True)
    fn = load_function(load_json(args.function), lattice, frame)
    mu = load_measure(load_json(args.measure), frame)
    eta = indefinite_integral(fn.as_simple(), mu)
    rows = [(frame.ref_name(s), format_extended(v)) for s, v in eta.items()]
    lines = [f"{ref} -> {v}" for ref, v in rows]
    lines.append("measure axioms: M1 ok, M2 ok, M3 ok (by additivity over the atoms of S(L)), "
                 "M4 by finiteness")
    _emit(args, lines, {"values": {ref: v for ref, v in rows}, "valid_measure": True})
    return 0


def cmd_decompose(args) -> int:
    from .simple import decompose_trace

    lattice, frame = _carrier_parts(args, need_frame=False)
    fn = load_function(load_json(args.function), lattice, frame)
    trace = decompose_trace(fn.cut, args.k)
    lines = []
    rows = []
    for step in trace:
        terms = [[str(r), a] for r, a in step.stage.terms]
        if len(terms) == 1 and terms[0][1] == step.stage.carrier.top:
            rendered = terms[0][0]
        else:
            rendered = " + ".join(f"{t[0]}*chi({t[1]})" for t in terms)
        residual = None if step.residual_sup is None else str(step.residual_sup)
        closed = None
        if frame is not None:
            # record whether the new cell is a closed congruence nabla(a)
            labels = frame.labels_of(frame.congruence_of_element(step.cell))
            closed = list(labels["nabla"])
        head = f"k={step.k} a_k={step.cell} residual={residual}"
        if closed is not None:
            head += f" closed={','.join(closed) if closed else 'no'}"
        lines.append(head)
        lines.append(f"f_{step.k} = {rendered}")
        rows.append({"k": step.k, "cell": step.cell, "terms": terms,
                     "residual": residual, "closed_for": closed})
    _emit(args, lines, {"steps": rows})
    return 0


def cmd_bridge(args) -> int:
    from .bridge import bridge_check
    from .rationals import format_extended

    space = load_space(load_json(args.space))
    f = load_classical_function(load_json(args.function), space)
    over = space.subset_of_name(args.over) if args.over else None
    report = bridge_check(space, f, over)
    value = "undefined" if report.classical_value is None else format_extended(report.classical_value)
    lines = [f"classical integral: {value} ({report.classical.classification})",
             f"pointfree integral: {value} ({report.localic.classification})",
             "exact agreement"]
    _emit(args, lines, {
        "classical": value,
        "pointfree": value,
        "classification": report.classical.classification,
        "equal": True,
    })
    return 0


def cmd_verify(args) -> int:
    from .verify import format_lines, run_all  # the suite and its corpus load only here

    results = run_all(seed=args.seed)
    lines = format_lines(results)
    payload = {"seed": args.seed,
               "criteria": [{"number": r.number, "name": r.name,
                             "passed": r.passed, "detail": r.detail}
                            for r in results],
               "passed": all(r.passed for r in results)}
    _emit(args, lines, payload)
    for r in results:
        print(f"[{r.number}] {r.seconds:.2f}s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="locint",
        description="Exact pointfree Lebesgue integration of simple functions "
                    "on finite distributive lattices.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, lattice=True, function=False, measure=False, carrier=False):
        if lattice:
            p.add_argument("--lattice", help="lattice document (JSON)")
        if function:
            p.add_argument("--function", required=True, help="function document (JSON)")
        if measure:
            p.add_argument("--measure", required=True, help="measure document (JSON)")
        if carrier:
            p.add_argument("--carrier", choices=["lattice", "congruence"],
                           default="lattice",
                           help="resolve the function over L or over C(L)")
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("validate", help="validate documents")
    common(p, carrier=True)
    p.add_argument("--function", help="function document (JSON)")
    p.add_argument("--measure", help="measure document (JSON)")
    p.add_argument("--space", help="measurable-space document (JSON)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("congruences", help="list C(L) with nabla/delta labels")
    common(p)
    p.set_defaults(func=cmd_congruences)

    p = sub.add_parser("canonicalize", help="canonical form of a simple function")
    common(p, function=True, carrier=True)
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("eval", help="print both cut ladders of a function")
    common(p, function=True, carrier=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("integrate", help="integrate a function against a measure")
    common(p, function=True, measure=True)
    p.add_argument("--over", help="sublocale reference (default: L)")
    p.set_defaults(func=cmd_integrate)

    p = sub.add_parser("indefinite", help="indefinite integral on every sublocale")
    common(p, function=True, measure=True)
    p.set_defaults(func=cmd_indefinite)

    p = sub.add_parser("decompose", help="increasing simple approximation")
    common(p, function=True, carrier=True)
    p.add_argument("--k", type=int, default=12, help="horizon (default 12)")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bridge", help="classical vs pointfree integral")
    p.add_argument("--space", required=True, help="measurable-space document (JSON)")
    p.add_argument("--function", required=True, help="classical function document (JSON)")
    p.add_argument("--over", help="subset name (default: the whole set)")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_bridge)

    p = sub.add_parser("verify", help="run the full verification suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UndefinedOperation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LocintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
