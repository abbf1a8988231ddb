from decimal import Decimal
from fractions import Fraction as F
from random import Random

import pytest

from locint import measure
from locint.bridge import FiniteMeasurableSpace
from locint.corpus import divisor_lattice, random_measure, random_simple
from locint.errors import AxiomViolation, InvalidArgument, MalformedDocument, NotBoolean
from locint.lattice import chain_lattice
from locint.integrate import (
    indefinite_integral,
    integrate_general,
    integrate_simple,
    nonnegativity_certificate,
    summability,
)
from locint.measure import Measure, check_axioms, measure_from_weights, validate_measure
from locint.rationals import NEG_INF, POS_INF, format_extended
from locint.simple import to_cut_function


def test_weights_example(b4):
    frame = b4.congruence_frame()
    mu = measure_from_weights(frame, {"x": F(2), "y": F(3)})
    assert mu.value(frame.resolve_ref("void")) == 0
    assert mu.value(frame.resolve_ref("open:x")) == 2
    assert mu.value(frame.resolve_ref("open:y")) == 3
    assert mu.value(frame.resolve_ref("L")) == 5


def test_explicit_values_validate(b4):
    frame = b4.congruence_frame()
    values = {frame.resolve_ref("void"): F(0), frame.resolve_ref("open:x"): F(2),
              frame.resolve_ref("open:y"): F(3), frame.resolve_ref("L"): F(5)}
    mu = validate_measure(frame, values)
    assert mu.value(frame.top) == 5


def test_modularity_violation_names_the_pair(b4):
    frame = b4.congruence_frame()
    values = {frame.resolve_ref("void"): F(0), frame.resolve_ref("open:x"): F(4),
              frame.resolve_ref("open:y"): F(3), frame.resolve_ref("L"): F(5)}
    with pytest.raises(AxiomViolation) as err:
        validate_measure(frame, values)
    assert "(M3)" in str(err.value)
    assert "open:x" in str(err.value) and "open:y" in str(err.value)


def test_monotonicity_violation(b4):
    frame = b4.congruence_frame()
    values = {frame.resolve_ref("void"): F(0), frame.resolve_ref("open:x"): F(6),
              frame.resolve_ref("open:y"): F(0), frame.resolve_ref("L"): F(5)}
    with pytest.raises(AxiomViolation) as err:
        validate_measure(frame, values)
    assert "(M2)" in str(err.value) or "(M3)" in str(err.value)


def test_strictness_violation(b4):
    frame = b4.congruence_frame()
    values = {frame.resolve_ref("void"): F(1), frame.resolve_ref("open:x"): F(2),
              frame.resolve_ref("open:y"): F(3), frame.resolve_ref("L"): F(4)}
    with pytest.raises(AxiomViolation) as err:
        validate_measure(frame, values)
    assert "(M1)" in str(err.value)


def test_zero_measure_everywhere(b4, c3):
    for lat in (b4, c3):
        frame = lat.congruence_frame()
        mu = validate_measure(frame, {s: F(0) for s in frame.congruences})
        assert all(v == 0 for _, v in mu.items())


def test_totality_is_required(b4):
    frame = b4.congruence_frame()
    with pytest.raises(MalformedDocument):
        validate_measure(frame, {frame.top: F(1)})


def test_negative_values_rejected(b4):
    frame = b4.congruence_frame()
    values = {s: F(0) for s in frame.congruences}
    values[frame.top] = F(-1)
    with pytest.raises(MalformedDocument):
        validate_measure(frame, values)


def test_infinite_weights(b4):
    frame = b4.congruence_frame()
    mu = measure_from_weights(frame, {"x": POS_INF, "y": F(3)})
    assert mu.value(frame.resolve_ref("open:x")) is POS_INF
    assert mu.value(frame.top) is POS_INF
    assert mu.value(frame.resolve_ref("open:y")) == 3


def test_weights_need_boolean_carrier(c3):
    with pytest.raises(NotBoolean):
        measure_from_weights(c3.congruence_frame(), {"m": F(1)})


def test_all_zero_weights(b8):
    frame = b8.congruence_frame()
    mu = measure_from_weights(frame, {"x": F(0), "y": F(0), "z": F(0)})
    assert all(v == 0 for _, v in mu.items())


def test_bridge_coherence_open_sublocales(b8):
    # the measure of o(a) is the weight of a, additively
    frame = b8.congruence_frame()
    weights = {"x": F(1), "y": F(2), "z": F(4)}
    mu = measure_from_weights(frame, weights)
    for a in b8.elements:
        expected = sum(weights[p] for p in b8.atoms() if b8.leq(p, a))
        assert mu.value(frame.open_sublocale(a)) == expected


def test_random_measures_on_non_boolean_carriers():
    rng = Random(7)
    for lat in (divisor_lattice(12), divisor_lattice(60)):
        frame = lat.congruence_frame()
        for _ in range(10):
            mu = random_measure(rng, frame, inf_probability=0.2)
            check_axioms(frame, [v for _, v in mu.items()])


# -- the constructor: one value per atom of S(L) --------------------------------------


def test_constructor_sums_the_atom_values(b4, c3):
    for lat in (b4, c3, divisor_lattice(12)):
        frame = lat.congruence_frame()
        atom_values = [F(k + 1, 2) for k in range(len(frame.atoms()))]
        atom_values[0] = POS_INF
        mu = Measure(frame, atom_values)
        for s, v in mu.items():
            bits = [w for k, w in enumerate(atom_values) if s.keep >> k & 1]
            assert v == (POS_INF if POS_INF in bits else sum(bits, F(0)))


def test_constructor_rejects_a_wrong_length(b4, c3):
    # a full table has 2**k values, never the k atom values
    for lat in (b4, c3, chain_lattice(["a"]), divisor_lattice(60)):
        frame = lat.congruence_frame()
        k = len(frame.atoms())
        for n in {0, k - 1, k + 1, len(frame.congruences)} - {k, -1}:
            with pytest.raises(MalformedDocument) as err:
                Measure(frame, [F(1)] * n)
            assert str(err.value) == (f"a measure takes one value per atom of S(L), {k}; "
                                      f"got {n}")
    frame = b4.congruence_frame()
    with pytest.raises(MalformedDocument):
        Measure(frame, (F(-1),) * 4)


@pytest.mark.parametrize("bad, shown", [(F(-1), "-1"), (F(-3, 2), "-3/2"), (NEG_INF, "-inf")])
def test_constructor_range_checks_the_atom_values(b4, bad, shown):
    with pytest.raises(MalformedDocument) as err:
        Measure(b4.congruence_frame(), [F(1), bad])
    assert str(err.value) == f"measure values must lie in [0, inf]; got {shown}"


@pytest.mark.parametrize("bad", [0.5, True, Decimal("0.5")])
def test_non_rational_measure_values_raise(b4, bad):
    frame = b4.congruence_frame()
    pq = [frozenset(), frozenset("p"), frozenset("q"), frozenset("pq")]
    entry_points = [
        lambda: Measure(frame, [F(1), bad]),
        lambda: validate_measure(frame, {s: bad for s in frame.congruences}),
        lambda: measure_from_weights(frame, {"x": bad, "y": F(1)}),
        lambda: FiniteMeasurableSpace.powerset(["p"], {"p": bad}),
        lambda: FiniteMeasurableSpace(["p", "q"], pq, {"p": F(1), "q": bad}),
        # an atom of two points
        lambda: FiniteMeasurableSpace(["p", "q"], [pq[0], pq[3]], {"1": bad}),
    ]
    for build in entry_points:
        with pytest.raises(InvalidArgument):
            build()


def test_measure_and_space_values_are_coerced(b4):
    frame = b4.congruence_frame()
    mu = validate_measure(frame, {s: bin(s.keep).count("1") for s in frame.congruences})
    assert {type(v) for _, v in mu.items()} == {F}
    space = FiniteMeasurableSpace.powerset(["p", "q"], {"p": 1, "q": "1/2"})
    assert dict(space.lam) == {frozenset(): 0, frozenset("p"): 1, frozenset("q"): F(1, 2),
                               frozenset("pq"): F(3, 2)}
    assert {type(v) for v in space.lam.values()} == {F}
    with pytest.raises(InvalidArgument):
        FiniteMeasurableSpace.powerset(["p"], {"p": "half"})


# -- one value is a bit sum; only a listing builds the subset sums -------------------------


def test_a_value_is_a_bit_sum_and_only_a_listing_builds_the_subset_sums(b4, c3, monkeypatch):
    """A measure holds its atom values alone: items, repr, value and
    value_by_keep equal the subset sums of the atom values, 0 and +inf
    atoms included.  No integral and no single value builds the subset
    sums; each listing builds them once."""
    rng = Random(11)
    real_sums, calls = measure.subset_sums, []

    def counted(*args):
        calls.append(args)
        return real_sums(*args)

    monkeypatch.setattr(measure, "subset_sums", counted)
    for lat in (b4, c3, divisor_lattice(12), divisor_lattice(60)):
        frame = lat.congruence_frame()
        facade = frame.as_lattice()
        atom_values = [rng.choice((F(0), POS_INF, F(rng.randint(1, 9), rng.randint(1, 4))))
                       for _ in frame.atoms()]
        sums = real_sums(atom_values)
        pairs = [(s, sums[s.keep]) for s in frame.congruences]
        shown = ", ".join(f"{frame.ref_name(s)}={format_extended(v)}" for s, v in pairs)
        mu = Measure(frame, atom_values)
        g = random_simple(rng, facade, nonneg=True)
        for s in (None, rng.choice(frame.congruences)):
            summability(g, mu, s)
            integrate_simple(g, mu, s)
            integrate_general(to_cut_function(g), mu, s)
        nonnegativity_certificate(g, mu, frame.top)
        indefinite_integral(g, mu)
        assert [mu.value(s) for s, _ in pairs] == [v for _, v in pairs]
        assert [mu.value_by_keep(s.keep) for s, _ in pairs] == [v for _, v in pairs]
        assert not calls
        assert list(mu.items()) == pairs
        assert len(calls) == 1
        assert repr(mu) == f"Measure({shown})"
        assert len(calls) == 2
        calls.clear()
