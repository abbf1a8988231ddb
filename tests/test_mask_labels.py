"""Differential tests for the keep-mask lookups of the frame (for C(L)
and for S(L)) and a measure: ``labels_of``, ``ref_name``, ``closed_sublocale``
(nabla) and ``open_sublocale`` (delta) against scans of every element of
L, and a measure's values against the table built sublocale by sublocale
in frame order."""

from random import Random

import pytest

from _oracle import (
    CORPUS,
    DOWNSETS,
    delta_by_partition,
    entry,
    labels_by_scan,
    nabla_by_partition,
    random_table,
    ref_name_by_scan,
)
from locint.bridge import FiniteMeasurableSpace
from locint.errors import MalformedDocument
from locint.lattice import chain_lattice
from locint.measure import Measure, validate_measure


# powerset spaces of 1 to 5 points, and an element named "": a label is
# present when it is not None, not when truthy
OWN = {f"space{n}": FiniteMeasurableSpace.powerset([f"p{i}" for i in range(n)],
                                                  {f"p{i}": 1 for i in range(n)}).lattice()
       for n in range(1, 6)}
OWN["empty_name"] = chain_lattice(["0", "", "1"])


def frame_of(name):
    return OWN[name].congruence_frame() if name in OWN else entry(name).frame


@pytest.mark.parametrize("name", CORPUS + DOWNSETS + tuple(OWN))
def test_labels_and_names_agree_with_the_element_scan(name):
    frame = frame_of(name)
    lat = frame.lattice
    for theta in frame.congruences:
        assert frame.labels_of(theta) == labels_by_scan(theta)
        assert frame.ref_name(theta) == ref_name_by_scan(frame, theta)
    for a in lat.elements:
        assert frame.closed_sublocale(a) == nabla_by_partition(lat, a)
        assert frame.open_sublocale(a) == delta_by_partition(lat, a)


def test_an_element_named_empty_is_a_label():
    frame = frame_of("empty_name")
    middle = frame.closed_sublocale("")
    assert frame.labels_of(middle)["nabla"] == ("",)
    assert frame.labels_of(frame.open_sublocale(""))["delta"] == ("",)
    assert frame.ref_name(frame.open_sublocale("")) == "open:"


def test_unknown_element_is_malformed(b4):
    frame = b4.congruence_frame()
    for label in (frame.closed_sublocale, frame.open_sublocale):
        with pytest.raises(MalformedDocument, match="unknown lattice element"):
            label("nope")


@pytest.mark.parametrize("name", CORPUS + DOWNSETS + tuple(OWN))
@pytest.mark.parametrize("inf_probability", [0.0, 0.3])
def test_measure_values_agree_with_the_frame_order_table(name, inf_probability):
    frame = frame_of(name)
    rng = Random(f"{name}-{inf_probability}")
    for _ in range(3):
        table = random_table(rng, frame, inf_probability)
        by_keep = {s.keep: v for s, v in zip(frame.congruences, table)}
        mu = Measure(frame, [by_keep[1 << k] for k in range(len(frame.atoms()))])
        assert list(mu.items()) == list(zip(frame.congruences, table))
        assert [mu.value(s) for s in frame.congruences] == table
        checked = validate_measure(frame, dict(zip(frame.congruences, table)))
        assert list(checked.items()) == list(mu.items())
