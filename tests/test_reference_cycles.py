"""References point one way, from what is built to what it is built over:
measure -> congruence frame -> lattice.  No lattice holds its frame, so
every object the library builds is freed by reference counting alone, and a full garbage collection after
dropping them finds nothing."""

import gc
from fractions import Fraction as F
from random import Random

from locint.bridge import ClassicalSimpleFunction, FiniteMeasurableSpace, bridge_check
from locint.corpus import downset_lattice
from locint.documents import load_function, load_measure
from locint.integrate import indefinite_integral, integrate_general, integrate_simple
from locint.lattice import chain_lattice, powerset_lattice
from locint.measure import Measure, validate_measure
from locint.simple import canonicalize, decompose_trace, sf_add, sf_mul, to_cut_function


def exercise() -> None:
    """Build and use each layer over three lattices, then drop it all."""
    lattices = [chain_lattice(["0", "a", "b", "1"]), powerset_lattice(["x", "y", "z"]),
                downset_lattice(Random(7), 4)]
    for lat in lattices:
        frame = lat.congruence_frame()
        carrier = frame.as_lattice()
        bits = frame.point_bits()
        n = len(bits)
        mu = Measure(frame, [F(k + 1, 2) for k in range(n)])
        checked = validate_measure(frame, dict(mu.items()))
        atoms = carrier.atoms()
        g = canonicalize(carrier, [(F(k + 1), a) for k, a in enumerate(atoms)])
        h = sf_mul(sf_add(g, g), g)
        cut = to_cut_function(h)
        s = frame.open_sublocale(lat.top)
        assert integrate_simple(h, checked, s)[0] == integrate_general(cut, mu, s)
        assert len(list(indefinite_integral(g, mu).items())) == frame.size
        assert decompose_trace(cut, 3)
        f = load_function({"kind": "simple", "terms": [["2", "L"]]}, lat, frame)
        nu = load_measure({"values": {frame.ref_name(t): str(v) for t, v in mu.items()}}, frame)
        assert integrate_simple(f.as_simple(), nu)[0] == 2 * nu.value(frame.top)
    space = FiniteMeasurableSpace.powerset(["cycle-p", "cycle-q"],
                                           {"cycle-p": F(1), "cycle-q": F(2)})
    fn = ClassicalSimpleFunction(space, {"cycle-p": F(3), "cycle-q": F(-1)})
    report = bridge_check(space, fn)
    assert report.classical_value == report.localic_value == 1


def test_dropped_objects_need_no_cycle_collection():
    gc.collect()
    gc.disable()
    try:
        exercise()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0, f"{found} objects were freed only by the cycle collector"
