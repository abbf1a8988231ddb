from fractions import Fraction as F

import pytest

from locint.corpus import divisor_lattice, random_measure
from locint.errors import AxiomViolation, MalformedDocument, NotBoolean
from locint.measure import check_axioms, measure_from_weights, validate_measure
from locint.rationals import POS_INF


def view_of(lat):
    return lat.congruence_frame().view()


def test_weights_example(b4):
    view = view_of(b4)
    mu = measure_from_weights(view, {"x": F(2), "y": F(3)})
    assert mu.value(view.resolve_ref("void")) == 0
    assert mu.value(view.resolve_ref("open:x")) == 2
    assert mu.value(view.resolve_ref("open:y")) == 3
    assert mu.value(view.resolve_ref("L")) == 5


def test_explicit_values_validate(b4):
    view = view_of(b4)
    values = {view.resolve_ref("void"): F(0), view.resolve_ref("open:x"): F(2),
              view.resolve_ref("open:y"): F(3), view.resolve_ref("L"): F(5)}
    mu = validate_measure(view, values)
    assert mu.value(view.top) == 5


def test_modularity_violation_names_the_pair(b4):
    view = view_of(b4)
    values = {view.resolve_ref("void"): F(0), view.resolve_ref("open:x"): F(4),
              view.resolve_ref("open:y"): F(3), view.resolve_ref("L"): F(5)}
    with pytest.raises(AxiomViolation) as err:
        validate_measure(view, values)
    assert "(M3)" in str(err.value)
    assert "open:x" in str(err.value) and "open:y" in str(err.value)


def test_monotonicity_violation(b4):
    view = view_of(b4)
    values = {view.resolve_ref("void"): F(0), view.resolve_ref("open:x"): F(6),
              view.resolve_ref("open:y"): F(0), view.resolve_ref("L"): F(5)}
    with pytest.raises(AxiomViolation) as err:
        validate_measure(view, values)
    assert "(M2)" in str(err.value) or "(M3)" in str(err.value)


def test_strictness_violation(b4):
    view = view_of(b4)
    values = {view.resolve_ref("void"): F(1), view.resolve_ref("open:x"): F(2),
              view.resolve_ref("open:y"): F(3), view.resolve_ref("L"): F(4)}
    with pytest.raises(AxiomViolation) as err:
        validate_measure(view, values)
    assert "(M1)" in str(err.value)


def test_zero_measure_everywhere(b4, c3):
    for lat in (b4, c3):
        view = view_of(lat)
        mu = validate_measure(view, {s: F(0) for s in view.sublocales})
        assert all(v == 0 for _, v in mu.items())


def test_totality_is_required(b4):
    view = view_of(b4)
    with pytest.raises(MalformedDocument):
        validate_measure(view, {view.top: F(1)})


def test_negative_values_rejected(b4):
    view = view_of(b4)
    values = {s: F(0) for s in view.sublocales}
    values[view.top] = F(-1)
    with pytest.raises(MalformedDocument):
        validate_measure(view, values)


def test_infinite_weights(b4):
    view = view_of(b4)
    mu = measure_from_weights(view, {"x": POS_INF, "y": F(3)})
    assert mu.value(view.resolve_ref("open:x")) is POS_INF
    assert mu.value(view.top) is POS_INF
    assert mu.value(view.resolve_ref("open:y")) == 3


def test_weights_need_boolean_carrier(c3):
    with pytest.raises(NotBoolean):
        measure_from_weights(view_of(c3), {"m": F(1)})


def test_all_zero_weights(b8):
    view = view_of(b8)
    mu = measure_from_weights(view, {"x": F(0), "y": F(0), "z": F(0)})
    assert all(v == 0 for _, v in mu.items())


def test_bridge_coherence_open_sublocales(b8):
    # the measure of o(a) is the weight of a, additively
    view = view_of(b8)
    weights = {"x": F(1), "y": F(2), "z": F(4)}
    mu = measure_from_weights(view, weights)
    for a in b8.elements:
        expected = sum(weights[p] for p in b8.atoms() if b8.leq(p, a))
        assert mu.value(view.open_sublocale(a)) == expected


def test_random_measures_on_non_boolean_carriers():
    from random import Random
    rng = Random(7)
    for lat in (divisor_lattice(12), divisor_lattice(60)):
        view = view_of(lat)
        for _ in range(10):
            mu = random_measure(rng, view, inf_probability=0.2)
            check_axioms(view, [v for _, v in mu.items()])
