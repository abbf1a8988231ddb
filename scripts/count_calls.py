#!/usr/bin/env python3
"""Count the calls each ``locint verify`` criterion makes to the functions
that carry its cost, as deterministic work counts beside the timings.

    python3 scripts/count_calls.py [--seed N]

Runs each entry of ``verify.CRITERIA`` in order, in one fresh process, with
the seed ``verify.run_all`` gives it, and prints one JSON object: per
criterion, the number of calls to each counted function, whoever the
caller.  The counting wrappers are installed from outside the library, in
every ``locint`` module that holds a counted function and on the classes
that define the counted methods, so the library itself pays nothing when
it is not counted.  Work done once per process, such as building the
lattices, frames and carriers of ``corpus.corpus()``, counts in the first
criterion that asks for it.  ``tests/golden/verify_seed0.counts.json``
records the output at seed 0; regenerate it on purpose after a change of
work with

    python3 scripts/count_calls.py > tests/golden/verify_seed0.counts.json
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from locint import congruence, cutfunction, integrate, lattice, measure, simple, verify  # noqa: E402

# label -> (the module or class that defines it, its name there)
COUNTED = {
    "CutFunction._fill": (cutfunction.CutFunction, "_fill"),
    "simple.to_cut_function": (simple, "to_cut_function"),
    "simple.canonicalize": (simple, "canonicalize"),
    "simple.cut_to_simple": (simple, "cut_to_simple"),
    "simple._from_vector": (simple, "_from_vector"),
    "FiniteLattice._set": (lattice.FiniteLattice, "_set"),  # one per lattice built
    "CongruenceFrame.__init__": (congruence.CongruenceFrame, "__init__"),
    "integrate._signed_sum": (integrate, "_signed_sum"),
    "Measure.value_by_keep": (measure.Measure, "value_by_keep"),
    "measure.subset_sums": (measure, "subset_sums"),
    "measure.check_axioms": (measure, "check_axioms"),
    "Congruence.__init__": (congruence.Congruence, "__init__"),
}


def install(calls: Counter) -> None:
    """Replace each counted function by a wrapper that adds one to its
    label, wherever a ``locint`` module or class holds it."""
    for label, (owner, name) in COUNTED.items():
        original = getattr(owner, name)

        def wrapper(*args, _label=label, _original=original, **kwargs):
            calls[_label] += 1
            return _original(*args, **kwargs)

        setattr(owner, name, wrapper)
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "locint"]:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    calls: Counter = Counter()
    install(calls)
    out = {}
    for number, (name, fn) in enumerate(verify.CRITERIA, start=1):
        calls.clear()
        fn(args.seed * 1000 + number)
        out[f"[{number}] {name}"] = {label: calls[label] for label in COUNTED}
    print(json.dumps({"seed": args.seed, "criteria": out}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
