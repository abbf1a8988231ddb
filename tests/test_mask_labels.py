"""Differential tests for the keep-mask lookups of the frame, the S(L)
view and a measure: ``labels_of``, ``ref_name``, ``closed_sublocale``
(nabla) and ``open_sublocale`` (delta) against scans of every element of
L, and a measure's values against the table built sublocale by sublocale
in frame order."""

from random import Random

import pytest

from _oracle import (
    delta_by_partition,
    downset_lattice,
    labels_by_scan,
    nabla_by_partition,
    random_table,
    ref_name_by_scan,
)
from locint.bridge import FiniteMeasurableSpace
from locint.corpus import corpus_lattices
from locint.errors import MalformedDocument
from locint.lattice import chain_lattice
from locint.measure import Measure, validate_measure


def lattices():
    out = dict(corpus_lattices())
    out.update({f"downset{seed}": downset_lattice(Random(seed), 2 + seed % 5)
                for seed in range(8)})
    for n in range(1, 6):
        points = [f"p{i}" for i in range(n)]
        out[f"space{n}"] = FiniteMeasurableSpace.powerset(points, dict.fromkeys(points, 1)).lattice()
    # an element named "": a label is present when it is not None, not when truthy
    out["empty_name"] = chain_lattice(["0", "", "1"])
    return out


LATTICES = lattices()


@pytest.mark.parametrize("name", sorted(LATTICES))
def test_labels_and_names_agree_with_the_element_scan(name):
    lat = LATTICES[name]
    frame = lat.congruence_frame()
    view = frame.view()
    for theta in frame.congruences:
        assert frame.labels_of(theta) == labels_by_scan(theta)
        assert view.ref_name(theta) == ref_name_by_scan(view, theta)
    for a in lat.elements:
        assert view.closed_sublocale(a) == nabla_by_partition(lat, a)
        assert view.open_sublocale(a) == delta_by_partition(lat, a)


def test_an_element_named_empty_is_a_label():
    frame = LATTICES["empty_name"].congruence_frame()
    view = frame.view()
    middle = view.closed_sublocale("")
    assert frame.labels_of(middle)["nabla"] == ("",)
    assert frame.labels_of(view.open_sublocale(""))["delta"] == ("",)
    assert view.ref_name(view.open_sublocale("")) == "open:"


def test_unknown_element_is_malformed(b4):
    view = b4.congruence_frame().view()
    for label in (view.closed_sublocale, view.open_sublocale):
        with pytest.raises(MalformedDocument, match="unknown lattice element"):
            label("nope")


@pytest.mark.parametrize("name", sorted(LATTICES))
@pytest.mark.parametrize("inf_probability", [0.0, 0.3])
def test_measure_values_agree_with_the_frame_order_table(name, inf_probability):
    view = LATTICES[name].congruence_frame().view()
    rng = Random(f"{name}-{inf_probability}")
    for _ in range(3):
        table = random_table(rng, view, inf_probability)
        by_keep = {s.keep: v for s, v in zip(view.sublocales, table)}
        mu = Measure(view, [by_keep[1 << k] for k in range(len(view.atoms()))])
        assert list(mu.items()) == list(zip(view.sublocales, table))
        assert [mu.value(s) for s in view.sublocales] == table
        checked = validate_measure(view, dict(zip(view.sublocales, table)))
        assert list(checked.items()) == list(mu.items())
