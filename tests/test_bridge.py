import re
from fractions import Fraction as F
from random import Random

import pytest

from _oracle import classical_add, classical_mul, classical_scale, preimage_above, preimage_below
from locint.bridge import (
    ClassicalSimpleFunction,
    FiniteMeasurableSpace,
    bridge_check,
    classical_integral,
    classical_summability,
    extend_measure,
    to_localic,
)
from locint.errors import MalformedDocument, NotIntegrable, SizeLimitExceeded
from locint.integrate import INTEGRABLE_NOT_SUMMABLE, SUMMABLE
from locint.rationals import NEG_INF, POS_INF
from locint.simple import sf_add, sf_mul, sf_scale, to_cut_function


@pytest.fixture(scope="module")
def space_xy():
    return FiniteMeasurableSpace.powerset(["x", "y"], {"x": F(2), "y": F(3)})


def test_classical_integral_examples(space_xy):
    f = ClassicalSimpleFunction(space_xy, {"x": F(2), "y": F(3)})
    value, report = classical_integral(f)
    assert value == 13 and report.classification == SUMMABLE
    assert classical_integral(ClassicalSimpleFunction(space_xy, {"x": F(0), "y": F(0)}))[0] == 0
    assert classical_integral(f, frozenset())[0] == 0
    assert classical_integral(f, frozenset(["x"]))[0] == 4


def test_not_integrable_classically():
    sp = FiniteMeasurableSpace.powerset(["x", "y"], {"x": POS_INF, "y": POS_INF})
    f = ClassicalSimpleFunction(sp, {"x": F(1), "y": F(-1)})
    with pytest.raises(NotIntegrable):
        classical_integral(f)


def test_to_localic_terms_and_preimage_table(space_xy):
    f = ClassicalSimpleFunction(space_xy, {"x": F(2), "y": F(3)})
    g = to_localic(f)
    cut = to_cut_function(g)
    frame = space_xy.frame()
    # f(-,q) must be nabla of the strict sublevel set, at every grid rational
    for q in (F(0), F(2), F(5, 2), F(3), F(7, 2), F(100)):
        expected = frame.closed_sublocale(space_xy.name_of(preimage_below(f, q))).partition_name()
        assert cut.lower_at(q) == expected
    for p in (F(-1), F(2), F(5, 2), F(3), F(100)):
        expected = frame.closed_sublocale(space_xy.name_of(preimage_above(f, p))).partition_name()
        assert cut.upper_at(p) == expected


def test_to_localic_of_constants_and_indicators(space_xy):
    from locint.simple import characteristic_simple, constant_simple
    facade = space_xy.lattice().congruence_frame().as_lattice()
    const = ClassicalSimpleFunction(space_xy, {"x": F(7), "y": F(7)})
    assert to_localic(const) == constant_simple(F(7), facade)
    indicator = ClassicalSimpleFunction(space_xy, {"x": F(1), "y": F(0)})
    assert to_localic(indicator) == characteristic_simple(
        space_xy.frame().closed_sublocale("x").partition_name(), facade)


def test_to_localic_is_a_ring_homomorphism(space_xy):
    rng = Random(4)
    for _ in range(40):
        f = ClassicalSimpleFunction(
            space_xy, {p: F(rng.randint(-5, 5), rng.choice((1, 2)))
                       for p in space_xy.points})
        g = ClassicalSimpleFunction(
            space_xy, {p: F(rng.randint(-5, 5), rng.choice((1, 2)))
                       for p in space_xy.points})
        lam = F(rng.randint(-3, 3), rng.choice((1, 2)))
        assert to_localic(classical_add(f, g)) == sf_add(to_localic(f), to_localic(g))
        assert to_localic(classical_mul(f, g)) == sf_mul(to_localic(f), to_localic(g))
        assert to_localic(classical_scale(lam, f)) == sf_scale(lam, to_localic(f))


def test_extend_measure_examples(space_xy):
    mu = extend_measure(space_xy)
    frame = space_xy.frame()
    assert mu.value(frame.resolve_ref("open:x")) == 2
    assert mu.value(frame.resolve_ref("open:y")) == 3
    assert mu.value(frame.top) == 5
    assert mu.value(frame.bottom) == 0


def test_extend_measure_zero_and_infinite():
    sp0 = FiniteMeasurableSpace.powerset(["x", "y"], {"x": F(0), "y": F(0)})
    assert all(v == 0 for _, v in extend_measure(sp0).items())
    spi = FiniteMeasurableSpace.powerset(["x", "y"], {"x": POS_INF, "y": F(3)})
    mu = extend_measure(spi)
    frame = spi.frame()
    assert mu.value(frame.resolve_ref("open:x")) is POS_INF
    assert mu.value(frame.top) is POS_INF


def test_bridge_check_examples(space_xy):
    f = ClassicalSimpleFunction(space_xy, {"x": F(2), "y": F(3)})
    report = bridge_check(space_xy, f)
    assert report.classical_value == report.localic_value == 13
    report = bridge_check(space_xy, f, frozenset(["x"]))
    assert report.classical_value == 4
    spi = FiniteMeasurableSpace.powerset(["x", "y"], {"x": F(2), "y": POS_INF})
    fs = ClassicalSimpleFunction(spi, {"x": F(2), "y": F(-3)})
    report = bridge_check(spi, fs)
    assert report.classical_value is NEG_INF
    assert report.classical.classification == INTEGRABLE_NOT_SUMMABLE
    assert report.localic.classification == INTEGRABLE_NOT_SUMMABLE


def test_explicit_algebra_validation():
    with pytest.raises(MalformedDocument):
        FiniteMeasurableSpace(["x", "y"],
                              [frozenset(), frozenset(["x"]), frozenset(["x", "y"])],
                              {"x": F(1), "y": F(0)})


def test_sub_sigma_algebra_bridge():
    # the four-element algebra {0, {x,y}, {z}, X} inside a three-point set
    pts = ["x", "y", "z"]
    sets = [frozenset(), frozenset(["x", "y"]), frozenset(["z"]), frozenset(pts)]
    sp = FiniteMeasurableSpace(pts, sets, {"{x,y}": F(5), "z": F(7)})
    f = ClassicalSimpleFunction(sp, {"x": F(2), "y": F(2), "z": F(-1)})
    report = bridge_check(sp, f)
    assert report.classical_value == 10 - 7
    with pytest.raises(MalformedDocument):
        ClassicalSimpleFunction(sp, {"x": F(1), "y": F(2), "z": F(3)})
    assert classical_summability(f, frozenset(["z"])) == (0, 7, SUMMABLE)
    with pytest.raises(MalformedDocument, match=r"^'x' is not a member of the algebra$"):
        classical_summability(f, frozenset(["x"]))
    with pytest.raises(MalformedDocument, match=r"^'\{x,z\}' is not a member of the algebra$"):
        classical_summability(f, frozenset(["x", "z"]))


def test_explicit_lambda_is_validated():
    # one weight per atom, keyed by its name; lambda is their sums
    sets = [frozenset(), frozenset(["x"]), frozenset(["y"]), frozenset(["x", "y"])]
    with pytest.raises(MalformedDocument, match=r"^no weight for atom 'y'$"):
        FiniteMeasurableSpace(["x", "y"], sets, {"x": F(1)})
    with pytest.raises(MalformedDocument, match=r"^weights given for non-atoms \['1'\]$"):
        FiniteMeasurableSpace(["x", "y"], sets, {"x": F(1), "y": F(2), "1": F(3)})
    with pytest.raises(MalformedDocument, match=r"\[0, inf\]; got -1"):
        FiniteMeasurableSpace(["x", "y"], sets, {"x": F(-1), "y": F(2)})
    sp = FiniteMeasurableSpace(["x", "y"], sets, {"x": F(1), "y": F(2)})
    assert dict(sp.lam) == {sets[0]: 0, sets[1]: 1, sets[2]: 2, sets[3]: 3}
    assert sp.lam == FiniteMeasurableSpace.powerset(["x", "y"], {"x": F(1), "y": F(2)}).lam


def test_weight_keys_naming_no_member_are_rejected():
    # a key that names no member of the algebra is rejected like any key
    # that names no atom, and is not kept in lambda
    with pytest.raises(MalformedDocument, match=r"^weights given for non-atoms \['z'\]$"):
        FiniteMeasurableSpace(["p"], [frozenset(), frozenset("p")], {"1": F(1), "z": F(1, 2)})
    with pytest.raises(MalformedDocument, match=r"^weights given for non-atoms \['z'\]$"):
        FiniteMeasurableSpace.powerset(["p", "q"], {"p": F(1), "q": F(1), "z": F(1, 2)})
    space = FiniteMeasurableSpace(["p"], [frozenset(), frozenset("p")], {"1": F(1)})
    assert dict(space.lam) == {frozenset(): 0, frozenset("p"): 1}


def test_powerset_names_missing_points_after_the_cap():
    with pytest.raises(MalformedDocument, match=r"^no weight for point\(s\) \['p', 'r'\]$"):
        FiniteMeasurableSpace.powerset(["p", "q", "r"], {"q": F(1)})
    seven = [f"p{i}" for i in range(7)]
    with pytest.raises(SizeLimitExceeded, match="^a powerset over 7 points exceeds"):
        FiniteMeasurableSpace.powerset(seven, {"zzz": F(1)})


def test_unclosed_algebra_names_its_first_set_in_a_fixed_order():
    pts = ["u", "v", "w", "x", "y", "z"]
    sets = [frozenset(), frozenset(pts)] + [frozenset([p]) for p in reversed(pts)]
    with pytest.raises(MalformedDocument,
                       match=r"^the algebra is not closed under complement at \['u'\]$"):
        FiniteMeasurableSpace(pts, sets, {p: F(1) for p in pts})


def test_space_size_cap_boundary():
    # 64 measurable sets are allowed: the powerset of 6 points, given as
    # "powerset" or listed set by set; 7 points are beyond the cap
    six = [f"p{i}" for i in range(6)]
    space = FiniteMeasurableSpace.powerset(six, {p: F(1) for p in six})
    assert len(space.algebra) == 64
    listed = FiniteMeasurableSpace(six, space.algebra, {p: F(1) for p in six})
    assert listed.algebra == space.algebra and listed.lam == space.lam
    seven = six + ["p6"]
    with pytest.raises(SizeLimitExceeded, match="^a powerset over 7 points exceeds the 64-set limit$"):
        FiniteMeasurableSpace.powerset(seven, {p: F(1) for p in seven})
    subsets = [frozenset(p for i, p in enumerate(seven) if m >> i & 1) for m in range(1 << 7)]
    with pytest.raises(SizeLimitExceeded, match="^an algebra of 128 sets exceeds the 64-set limit$"):
        FiniteMeasurableSpace(seven, subsets, {})
    with pytest.raises(SizeLimitExceeded, match="^an algebra of 128 sets exceeds the 64-set limit$"):
        FiniteMeasurableSpace(seven, subsets, {p: F(1) for p in seven})


def test_lambda_and_values_are_read_only(space_xy):
    with pytest.raises(TypeError):
        space_xy.lam[frozenset(["x"])] = F(100)
    f = ClassicalSimpleFunction(space_xy, {"x": F(2), "y": F(3)})
    with pytest.raises(TypeError):
        f.values["x"] = F(7)
    assert space_xy.lam[frozenset(["x"])] == 2 and f.values["x"] == 2


def test_extension_is_built_once_per_space(space_xy):
    assert extend_measure(space_xy) is extend_measure(space_xy)


@pytest.mark.parametrize("points, algebra, weights, shared", [
    # a point named like the subset {x,y}
    (["x", "y", "{x,y}"], [{"x", "y"}, {"{x,y}"}, set(), {"x", "y", "{x,y}"}],
     {"{x,y}": F(1)}, "{x,y}"),
    # a point named like the empty set, with a weight fault as well
    (["0", "a"], [set(), {"0"}, {"a"}, {"0", "a"}], {"0": F(-1)}, "0"),
])
def test_members_named_alike_are_rejected_before_the_weights(points, algebra, weights, shared):
    with pytest.raises(MalformedDocument,
                       match=rf"^two members of the algebra are both named '{re.escape(shared)}'$"):
        FiniteMeasurableSpace(points, [frozenset(s) for s in algebra], weights)


def test_spaces_over_equal_algebras_share_one_lattice():
    points = ["p0", "p1", "p2"]
    a = FiniteMeasurableSpace.powerset(points, {"p0": F(1), "p1": F(2), "p2": F(3)})
    b = FiniteMeasurableSpace.powerset(points, {"p0": F(5), "p1": POS_INF, "p2": F(0)})
    assert a.lattice() is b.lattice() and a.frame() is b.frame()
    top = a.frame().top
    assert (extend_measure(a).value(top), extend_measure(b).value(top)) == (F(6), POS_INF)
    other = FiniteMeasurableSpace.powerset(["q0", "q1", "q2"], {"q0": 1, "q1": 1, "q2": 1})
    assert other.lattice() is not a.lattice()
