from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locint.cutfunction as cf
import locint.simple as sf
from _oracle import (
    canonicalize_by_names,
    downset_lattice,
    fractions_upto,
    padd,
    pmul,
    pointwise_of_simple,
    pscale,
    simple_from_pointwise,
    table_boolean_atoms,
    table_of,
)
from locint.corpus import corpus_lattices
from locint.errors import (
    CarrierMismatch,
    NotComplemented,
    NotFinite,
    NotNonnegative,
    ValidationFailure,
)
from locint.lattice import chain_lattice, powerset_lattice

ATOMS = ["x", "y", "z"]
B8 = powerset_lattice(ATOMS)

values3 = st.fixed_dictionaries(
    {a: st.sampled_from(fractions_upto(-5, 5, 4)) for a in ATOMS})


def test_canonicalize_examples(b4):
    g = sf.canonicalize(b4, [(F(1), "x"), (F(1), "1")])
    assert g.terms == ((F(1), "y"), (F(2), "x"))
    assert sf.canonicalize(b4, []) == sf.zero(b4)
    assert sf.zero(b4).terms == ((F(0), "1"),)
    g = sf.canonicalize(b4, [(F(2), "x"), (F(3), "y")])
    assert g.terms == ((F(2), "x"), (F(3), "y"))


def test_canonicalize_requires_complemented_terms(c3):
    with pytest.raises(NotComplemented):
        sf.canonicalize(c3, [(F(1), "m")])


def test_to_cut_function_table(b4):
    g = sf.canonicalize(b4, [(F(2), "x"), (F(3), "y")])
    cut = sf.to_cut_function(g)
    assert cut.breakpoints == (F(2), F(3))
    assert cut.lower == ("0", "x", "1")
    assert cut.upper == ("1", "y", "0")
    assert sf.to_cut_function(sf.zero(b4)) == cf.constant(F(0), b4)
    chi = sf.canonicalize(b4, [(F(0), "y"), (F(1), "x")])
    assert sf.to_cut_function(chi) == cf.characteristic("x", b4)


def test_cut_to_simple_round_trip(b4):
    for terms in ([(F(2), "x"), (F(3), "y")], [(F(-1), "x"), (F(0), "y")]):
        g = sf.canonicalize(b4, terms)
        assert sf.cut_to_simple(sf.to_cut_function(g)) == g
    with pytest.raises(NotFinite):
        from locint.rationals import POS_INF
        sf.cut_to_simple(cf.constant(POS_INF, b4))


def test_sf_add_examples(b4):
    chi_x = sf.characteristic_simple("x", b4)
    chi_y = sf.characteristic_simple("y", b4)
    assert sf.sf_add(chi_x, chi_y) == sf.constant_simple(F(1), b4)
    g = sf.canonicalize(b4, [(F(2), "x"), (F(3), "y")])
    assert sf.sf_add(g, sf.zero(b4)) == g
    h = sf.canonicalize(b4, [(F(1), "x"), (F(-1), "y")])
    assert sf.sf_add(g, h).terms == ((F(2), "y"), (F(3), "x"))


def test_sf_scale_examples(b4):
    g = sf.canonicalize(b4, [(F(2), "x"), (F(3), "y")])
    assert sf.sf_scale(F(-1), g).terms == ((F(-3), "y"), (F(-2), "x"))
    assert sf.sf_scale(F(0), g) == sf.zero(b4)
    assert sf.sf_scale(F(1, 2), g).terms == ((F(1), "x"), (F(3, 2), "y"))


def test_sf_mul_examples(b4):
    chi_x = sf.characteristic_simple("x", b4)
    chi_y = sf.characteristic_simple("y", b4)
    assert sf.sf_mul(chi_x, chi_y) == sf.zero(b4)
    g = sf.canonicalize(b4, [(F(2), "x"), (F(3), "y")])
    assert sf.sf_mul(g, sf.constant_simple(F(1), b4)) == g
    assert sf.sf_mul(g, g).terms == ((F(4), "x"), (F(9), "y"))


def test_parts_and_modulus(b4):
    g = sf.canonicalize(b4, [(F(-2), "x"), (F(3), "y")])
    assert sf.positive_part(g).terms == ((F(0), "x"), (F(3), "y"))
    assert sf.negative_part(g).terms == ((F(0), "y"), (F(2), "x"))
    assert sf.abs_simple(g).terms == ((F(2), "x"), (F(3), "y"))
    assert sf.sf_add(sf.positive_part(g), sf.sf_neg(sf.negative_part(g))) == g


def test_decompose_milestones(b4):
    one = cf.constant(F(1), b4)
    stages = [s.stage for s in sf.decompose_trace(one, 7)]
    assert stages[0] == sf.zero(b4)
    assert stages[1] == sf.constant_simple(F(1, 2), b4)
    assert stages[2] == sf.constant_simple(F(5, 6), b4)
    assert stages[3] == stages[4] == stages[5] == stages[2]
    assert stages[6] == sf.constant_simple(F(41, 42), b4)


def test_decompose_characteristic(b4):
    chi = cf.characteristic("x", b4)
    stages = [s.stage for s in sf.decompose_trace(chi, 3)]
    assert stages[0] == sf.zero(b4)
    assert stages[1] == sf.canonicalize(b4, [(F(1, 2), "x")])
    assert stages[2] == sf.canonicalize(b4, [(F(5, 6), "x")])


def test_decompose_zero(b4):
    for step in sf.decompose_trace(sf.to_cut_function(sf.zero(b4)), 6):
        assert step.stage == sf.zero(b4)


def test_decompose_rejects_negative(b4):
    with pytest.raises(NotNonnegative):
        sf.decompose_trace(cf.constant(F(-1), b4), 3)


def test_decompose_rejects_horizon_below_one(b4):
    # a validation failure for the CLI, still a ValueError for library callers
    for horizon in (0, -3):
        with pytest.raises(ValidationFailure, match="horizon must be at least 1") as err:
            sf.decompose_trace(cf.constant(F(1), b4), horizon)
        assert isinstance(err.value, ValueError)


def test_constructor_canonicalizes_any_term_list(b8):
    # unsorted, repeated, overlapping, partial and bottom terms, and no terms
    cases = [
        [(F(2), "x"), (F(1), "{y,z}")],
        [(F(1), "0"), (F(2), "1")],
        [(F(1), "{x,y}"), (F(2), "y"), (F(3), "z")],
        [(F(1), "x"), (F(2), "{x,z}"), (F(3), "y")],
        [(F(1), "x"), (F(2), "y")],
        [(F(1), "{x,y}"), (F(0), "y")],
        [(F(1), "{x,y}"), (F(2), "{y,z}"), (F(0), "z")],
        [(F(1), "x"), (F(-1), "x")],
        [],
    ]
    for terms in cases:
        g = sf.SimpleFunction(b8, terms)
        assert g == sf.canonicalize(b8, terms), terms
        assert g.terms == canonicalize_by_names(b8, terms).terms, terms
        assert hash(g) == hash(sf.canonicalize(b8, terms)), terms
    assert sf.SimpleFunction(b8, []) == sf.zero(b8)
    assert sf.SimpleFunction(b8, [(1, "x"), ("3/2", "{y,z}")]).terms == (
        (F(1), "x"), (F(3, 2), "{y,z}"))


def test_ring_operations_check_the_carrier(b4, b8):
    twin = powerset_lattice(["x", "y"])
    assert twin == b4 and twin is not b4
    g, h = sf.canonicalize(b4, [(F(2), "x")]), sf.canonicalize(twin, [(F(3), "1")])
    assert sf.sf_add(g, h) == sf.canonicalize(b4, [(F(5), "x"), (F(3), "y")])
    assert sf.sf_mul(g, h) == sf.canonicalize(b4, [(F(6), "x")])
    other = sf.canonicalize(b8, [(F(1), "x")])
    for op in (sf.sf_add, sf.sf_mul):
        for a, b in ((g, other), (other, g)):
            with pytest.raises(CarrierMismatch,
                               match="^the two simple functions live on different carriers$"):
                op(a, b)


def test_decompose_monotone_and_dominated(b8):
    g = sf.canonicalize(b8, [(F(1, 2), "x"), (F(2), "{y,z}")])
    f = sf.to_cut_function(g)
    stages = [sf.to_cut_function(s.stage) for s in sf.decompose_trace(f, 12)]
    for a, b in zip(stages, stages[1:]):
        assert cf.leq(a, b)
    for s in stages:
        assert cf.leq(s, f)


def test_decompose_table_and_residuals(b8):
    g = sf.canonicalize(b8, [(F(1, 3), "x"), (F(3, 2), "{y,z}")])
    f = sf.to_cut_function(g)
    for step in sf.decompose_trace(f, 12):
        assert sf.to_cut_function(step.stage) == sf.stage_table(f, step.k)
        assert step.residual_sup is not None
        assert step.residual_sup <= F(1, step.k)


def test_decompose_extended_input(b4):
    # +inf on x, 0 on y: stages climb the harmonic series on x
    inf_on_x = cf.CutFunction(b4, (F(0),), ("1", "x"), ("0", "y"))
    stages = [s.stage for s in sf.decompose_trace(inf_on_x, 4)]
    assert stages[0] == sf.characteristic_simple("x", b4)
    acc = F(1)
    for k, stage in enumerate(stages[1:], start=2):
        acc += F(1, k)
        assert stage == sf.canonicalize(b4, [(acc, "x")])


def test_decomposition_grid_properties():
    for k in (1, 2, 3, 7, 12):
        grid = sf.decomposition_grid(k)
        assert grid[0] == 0
        assert grid[1] == F(1, k)
        assert grid[-1] == sum(F(1, i) for i in range(1, k + 1))
        assert all(b - a <= F(1, k) for a, b in zip(grid, grid[1:]))


# -- randomized comparisons against the pointwise oracle -------------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values3, values3)
def test_sf_add_matches_pointwise(u, v):
    g, h = simple_from_pointwise(B8, ATOMS, u), simple_from_pointwise(B8, ATOMS, v)
    assert sf.sf_add(g, h) == simple_from_pointwise(B8, ATOMS, padd(u, v))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values3, values3)
def test_sf_mul_matches_pointwise(u, v):
    g, h = simple_from_pointwise(B8, ATOMS, u), simple_from_pointwise(B8, ATOMS, v)
    assert sf.sf_mul(g, h) == simple_from_pointwise(B8, ATOMS, pmul(u, v))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(values3, st.sampled_from(fractions_upto(-3, 3, 2)))
def test_sf_scale_matches_pointwise(u, lam):
    g = simple_from_pointwise(B8, ATOMS, u)
    assert sf.sf_scale(lam, g) == simple_from_pointwise(B8, ATOMS, pscale(lam, u))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values3)
def test_canonical_round_trip_through_pointwise(u):
    g = simple_from_pointwise(B8, ATOMS, u)
    assert pointwise_of_simple(g, ATOMS) == u
    assert sf.canonicalize(B8, g.terms) == g


@settings(max_examples=60, deadline=None, derandomize=True)
@given(values3, values3)
def test_cut_and_simple_arithmetic_agree(u, v):
    g, h = simple_from_pointwise(B8, ATOMS, u), simple_from_pointwise(B8, ATOMS, v)
    assert sf.to_cut_function(sf.sf_add(g, h)) == cf.add(sf.to_cut_function(g),
                                                         sf.to_cut_function(h))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(values3)
def test_canonicalize_invariant_under_refinement(u):
    g = simple_from_pointwise(B8, ATOMS, u)
    refined = []
    for r, a in g.terms:
        e = "x"
        inside, outside = B8.meet(a, e), B8.meet(a, B8.complement(e))
        for piece in (inside, outside):
            if piece != B8.bottom:
                refined.append((r, piece))
    refined.reverse()
    assert sf.canonicalize(B8, refined) == g


# -- the same comparisons on the atoms of a Boolean centre beyond B8 --------------------
#
# The points are the centre atoms as the table lattice finds them: {2,4},
# {3} and {5} in div60's J(L), only the top in the 4-chain, the 8 atoms of
# C(chain9) at the 256-congruence cap, and four atoms of a seeded down-set
# lattice, one of them two join-irreducibles.

CENTRED = {
    "div60": corpus_lattices()["div60"],
    "chain4": chain_lattice(["0", "a", "b", "1"]),
    "C(chain9)": chain_lattice([str(i) for i in range(9)]).congruence_frame().as_lattice(),
    "downset": downset_lattice(Random(5), 5),
}
POINTS = {name: table_boolean_atoms(table_of(lat)) for name, lat in CENTRED.items()}

# st.fractions is slow to draw from; these are the same values, ints over 1..4
coeffs = st.builds(F, st.integers(-20, 20), st.sampled_from([1, 2, 3, 4]))
vectors = st.lists(coeffs, min_size=8, max_size=8)


@pytest.mark.parametrize("name", sorted(CENTRED))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(vectors, vectors, st.builds(F, st.integers(-6, 6), st.sampled_from([1, 2])))
def test_ring_and_parts_match_pointwise_on_the_centre_atoms(name, u, v, lam):
    lat, pts = CENTRED[name], POINTS[name]
    u, v = dict(zip(pts, u)), dict(zip(pts, v))

    def pointwise(values):
        return simple_from_pointwise(lat, pts, values)

    g, h = pointwise(u), pointwise(v)
    assert pointwise_of_simple(g, pts) == u
    assert sf.canonicalize(lat, g.terms) == g
    assert sf.canonicalize(lat, [(r, x) for x, r in reversed(u.items())]) == g
    assert sf.sf_add(g, h) == pointwise(padd(u, v))
    assert sf.sf_mul(g, h) == pointwise(pmul(u, v))
    assert sf.sf_scale(lam, g) == pointwise(pscale(lam, u))
    assert sf.positive_part(g) == pointwise({x: max(r, 0) for x, r in u.items()})
    assert sf.negative_part(g) == pointwise({x: max(-r, 0) for x, r in u.items()})
    assert sf.abs_simple(g) == pointwise({x: abs(r) for x, r in u.items()})
