"""The Birkhoff transport oracle: beyond Boolean L, the integrals over C(L)
are the classical integrals on the point set J(L).

S(L) is 2^J(L), so a measure on S(L) is the classical measure with
lambda({j}) the measure of the sublocale keeping j alone, and a simple
function over C(L) is the classical function whose value at j is the sum
of the coefficients of the terms whose sublocale keeps j.  Both are read off
partitions in ``_oracle`` (j is kept iff j and its lower cover lie in
different blocks), never off keep-masks, and compared with
``bridge.classical_integral`` on the powerset space over J(L): every
|J| <= 6 fits the bridge's 64-set cap."""

from random import Random

import pytest

from _oracle import DOWNSETS, entry, points_with_lower_covers, transport, transported
from locint.bridge import classical_integral, classical_summability
from locint.corpus import random_measure, random_simple
from locint.errors import NotIntegrable
from locint.integrate import indefinite_integral, integrate_general, integrate_simple, summability
from locint.simple import to_cut_function


def outcome(fn, *args):
    try:
        return ("ok", fn(*args))
    except NotIntegrable as exc:
        return ("error", str(exc))


def value_of(fn, *args):
    try:
        return fn(*args)
    except NotIntegrable:
        return None


@pytest.mark.parametrize("name", ("c3", "div12", "div60") + DOWNSETS)
def test_the_integrals_are_the_classical_integrals_over_j(name):
    _, lat, frame, facade = entry(name)
    assert len(points_with_lower_covers(lat)) == len(frame.atoms())
    rng = Random(f"transport-{name}")
    for trial in range(6):
        mu = random_measure(rng, frame, inf_probability=0.3 if trial % 2 else 0.0)
        space, kept = transport(lat, mu)
        g = random_simple(rng, facade, coeff_lo=-6, coeff_hi=6)
        gpos = random_simple(rng, facade, nonneg=True, coeff_hi=4)
        classical, classical_pos = transported(g, lat, space), transported(gpos, lat, space)
        eta = indefinite_integral(gpos, mu)
        general = to_cut_function(g)
        for s, points in [(None, None), *kept.items()]:
            assert summability(g, mu, s) == classical_summability(classical, points)
            assert (outcome(integrate_simple, g, mu, s)
                    == outcome(classical_integral, classical, points))
            assert (value_of(integrate_general, general, mu, s)
                    == value_of(lambda: classical_integral(classical, points)[0]))
            if s is not None:
                assert eta.value(s) == classical_integral(classical_pos, points)[0]
