#!/usr/bin/env python3
"""Walk the four-element Boolean algebra end to end.

Builds the powerset lattice on {x, y}, lists its congruence frame, puts the
weights x:2, y:3 on the open sublocales, integrates 2*chi(o(x)) + 3*chi(o(y))
over several sublocales, prints the indefinite integral, runs the harmonic
decomposition of the constant 1, and closes with the classical cross-check.
"""

import sys
from fractions import Fraction as F
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import locint.cutfunction as cf  # noqa: E402
import locint.simple as sf  # noqa: E402
from locint.bridge import (  # noqa: E402
    ClassicalSimpleFunction,
    FiniteMeasurableSpace,
    bridge_check,
)
from locint.integrate import indefinite_integral, integrate_simple  # noqa: E402
from locint.lattice import powerset_lattice  # noqa: E402
from locint.measure import measure_from_weights  # noqa: E402
from locint.rationals import format_extended  # noqa: E402


def main() -> None:
    b4 = powerset_lattice(["x", "y"])
    print(f"lattice: {b4.elements}, bottom={b4.bottom}, top={b4.top}")

    frame = b4.congruence_frame()
    print(f"\ncongruence frame: {frame.size} congruences")
    for theta in frame.congruences:
        labels = frame.labels_of(theta)
        tags = [f"nabla:{a}" for a in labels["nabla"]] + [f"delta:{a}" for a in labels["delta"]]
        print(f"  {theta.partition_name():14} {' '.join(tags):22} -> {frame.ref_name(theta)}")

    mu = measure_from_weights(frame, {"x": F(2), "y": F(3)})
    print(f"\nmeasure from weights x:2 y:3 -> {mu}")

    facade = frame.as_lattice()
    nx = frame.closed_sublocale("x").partition_name()
    ny = frame.closed_sublocale("y").partition_name()
    g = sf.canonicalize(facade, [(F(2), nx), (F(3), ny)])
    print(f"\nintegrand g = 2*chi(o(x)) + 3*chi(o(y))")
    for ref in ("L", "open:x", "open:y", "void"):
        value, report = integrate_simple(g, mu, frame.resolve_ref(ref))
        print(f"  integral over {ref:7} = {format_extended(value)} ({report.classification})")

    eta = indefinite_integral(g, mu)
    print(f"\nindefinite integral (a measure again): {eta}")

    print("\nharmonic decomposition of the constant 1:")
    for step in sf.decompose_trace(cf.constant(F(1), b4), 7):
        stage = step.stage.terms
        rendered = stage[0][0] if len(stage) == 1 else step.stage
        print(f"  k={step.k}: cell={step.cell}  f_k={rendered}  residual={step.residual_sup}")

    space = FiniteMeasurableSpace.powerset(["x", "y"], {"x": F(2), "y": F(3)})
    f_tilde = ClassicalSimpleFunction(space, {"x": F(2), "y": F(3)})
    report = bridge_check(space, f_tilde)
    print(f"\nclassical cross-check: {format_extended(report.classical_value)} "
          f"== {format_extended(report.localic_value)} "
          f"({report.classical.classification})")


if __name__ == "__main__":
    main()
