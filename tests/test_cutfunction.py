from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import locint.cutfunction as cf
from _oracle import cut_from_pointwise, fractions_upto, padd, pjoin, pmeet, pmul, pscale
from locint.errors import (
    CarrierMismatch,
    InvalidArgument,
    InvalidScale,
    NegativeOperand,
    NotComplemented,
    NotFinite,
    ValidationFailure,
)
from locint.lattice import powerset_lattice
from locint.rationals import NEG_INF, POS_INF

ATOMS3 = ["x", "y", "z"]
B8 = powerset_lattice(ATOMS3)

small_rationals = st.sampled_from(fractions_upto(-6, 6, 4))
pointwise3 = st.fixed_dictionaries({a: small_rationals for a in ATOMS3})
nonneg_pointwise3 = st.fixed_dictionaries(
    {a: st.sampled_from(fractions_upto(0, 6, 4)) for a in ATOMS3})


def test_characteristic_table(b4):
    chi = cf.characteristic("x", b4)
    assert chi.breakpoints == (F(0), F(1))
    assert chi.upper == ("1", "x", "0")
    assert chi.lower == ("0", "y", "1")
    assert cf.characteristic(b4.top, b4) == cf.constant(F(1), b4)
    assert cf.characteristic(b4.bottom, b4) == cf.constant(F(0), b4)


def test_characteristic_needs_a_complemented_element(c3):
    with pytest.raises(NotComplemented, match="^'m' is not complemented in this lattice$"):
        cf.characteristic("m", c3)


def test_constant_table(b4):
    zero = cf.constant(F(0), b4)
    assert zero.upper_at(F(-1)) == "1" and zero.upper_at(F(0)) == "0"
    assert zero.lower_at(F(0)) == "0" and zero.lower_at(F(1, 2)) == "1"
    minus2 = cf.constant(F(-2), b4)
    assert minus2.breakpoints == (F(-2),)
    inf = cf.constant(POS_INF, b4)
    assert inf.upper == ("1",) and inf.lower == ("0",) and not inf.is_finite()
    assert cf.constant(NEG_INF, b4).upper == ("0",)


def test_invalid_ladders_are_rejected(b4):
    with pytest.raises(InvalidScale):
        cf.CutFunction(b4, (F(0),), ("1", "x"), ("0", "x"))  # x /\ x != bottom
    with pytest.raises(InvalidScale):
        cf.CutFunction(b4, (F(0), F(0)), ("1", "x", "0"), ("0", "y", "1"))
    with pytest.raises(InvalidScale):
        cf.CutFunction(b4, (F(0),), ("x", "1"), ("y", "0"))  # not antitone


def test_leq_examples(b4):
    assert cf.leq(cf.constant(F(2), b4), cf.constant(F(3), b4))
    chi_x, chi_y = cf.characteristic("x", b4), cf.characteristic("y", b4)
    zero, one = cf.constant(F(0), b4), cf.constant(F(1), b4)
    for chi in (chi_x, chi_y):
        assert cf.leq(zero, chi) and cf.leq(chi, one)
    assert not cf.leq(chi_x, chi_y) and not cf.leq(chi_y, chi_x)


def test_carrier_mismatch(b4, b8):
    with pytest.raises(CarrierMismatch):
        cf.add(cf.constant(F(1), b4), cf.constant(F(1), b8))


def test_add_examples(b4):
    assert cf.add(cf.constant(F(2), b4), cf.constant(F(3), b4)) == cf.constant(F(5), b4)
    chi_x, chi_y = cf.characteristic("x", b4), cf.characteristic("y", b4)
    assert cf.add(chi_x, chi_y) == cf.constant(F(1), b4)
    assert cf.add(chi_x, cf.constant(F(0), b4)) == chi_x
    with pytest.raises(NotFinite):
        cf.add(cf.constant(POS_INF, b4), cf.constant(F(1), b4))


def test_scale_examples(b4):
    chi_x = cf.characteristic("x", b4)
    assert cf.scale(F(1), chi_x) == chi_x
    assert cf.scale(F(-1), cf.constant(F(2), b4)) == cf.constant(F(-2), b4)
    doubled = cf.scale(F(2), chi_x)
    assert doubled.breakpoints == (F(0), F(2))
    assert doubled.upper == ("1", "x", "0")
    assert cf.scale(F(0), chi_x) == cf.constant(F(0), b4)


def test_mul_examples(b4):
    chi_x, chi_y = cf.characteristic("x", b4), cf.characteristic("y", b4)
    assert cf.mul_nonneg(chi_x, chi_y) == cf.constant(F(0), b4)
    assert cf.mul_nonneg(chi_x, chi_x) == chi_x
    assert cf.mul_nonneg(cf.constant(F(2), b4), cf.constant(F(3), b4)) == cf.constant(F(6), b4)
    with pytest.raises(NegativeOperand):
        cf.mul_nonneg(cf.constant(F(-1), b4), chi_x)


def test_join_meet_examples(b4):
    chi_x, chi_y = cf.characteristic("x", b4), cf.characteristic("y", b4)
    assert cf.join_meet(chi_x, chi_x) == (chi_x, chi_x)
    two, three = cf.constant(F(2), b4), cf.constant(F(3), b4)
    assert cf.join_meet(two, three)[0] == three
    j, m = cf.join_meet(chi_x, chi_y)
    assert j == cf.constant(F(1), b4)
    assert m == cf.constant(F(0), b4)


def test_seq_inf_sup_examples(b4):
    chi_x, chi_y = cf.characteristic("x", b4), cf.characteristic("y", b4)
    assert cf.seq_inf([chi_x]) == chi_x
    assert cf.seq_inf([chi_x, chi_y]) == cf.constant(F(0), b4)
    assert cf.seq_sup([chi_x, chi_y]) == cf.constant(F(1), b4)
    consts = [cf.constant(F(n), b4) for n in (1, 2, 3)]
    assert cf.seq_sup(consts) == cf.constant(F(3), b4)
    decreasing = [cf.constant(F(1, n), b4) for n in (1, 2, 3)]
    assert cf.seq_inf(decreasing) == cf.constant(F(1, 3), b4)


@pytest.mark.parametrize("fn", [cf.seq_inf, cf.seq_sup])
def test_seq_inf_sup_reject_an_empty_family(fn):
    with pytest.raises(InvalidArgument, match=f"^{fn.__name__} needs at least one function$"):
        fn([])
    assert issubclass(InvalidArgument, ValidationFailure)
    assert issubclass(InvalidArgument, ValueError)


def test_seq_inf_never_needs_missing_complements_on_frames(b4, c3):
    # over a congruence frame the needed complements always exist
    import locint.simple as sf
    for lat in (b4, c3):
        facade = lat.congruence_frame().as_lattice()
        fams = [[cf.characteristic(a, facade) for a in facade.atoms()],
                [cf.constant(F(1), facade), cf.constant(F(2), facade)]]
        for fam in fams:
            cf.seq_inf(fam)
            cf.seq_sup(fam)


def test_inf_formula_matches_meet_formula_on_frames(b4):
    # on a frame carrier the complement formula agrees with taking meets
    facade = b4.congruence_frame().as_lattice()
    fam = [cf.characteristic(a, facade) for a in facade.atoms()]
    got = cf.seq_inf(fam)
    grid = sorted(set().union(*(set(f.breakpoints) for f in fam)))
    for p in [grid[0] - 1] + grid:
        meet_val = facade.top
        for f in fam:
            meet_val = facade.meet(meet_val, f.upper_at(p))
        assert got.upper_at(p) == meet_val


def test_limits_examples(b4):
    chi_x, chi_y = cf.characteristic("x", b4), cf.characteristic("y", b4)
    f = cf.constant(F(7, 2), b4)
    li, ls, lim = cf.limits(cf.FunctionSequence((f, f, f), f))
    assert li == ls == lim == f
    two = cf.constant(F(2), b4)
    li, ls, lim = cf.limits(cf.FunctionSequence((chi_x, chi_y, chi_x, chi_y), two))
    assert li == ls == lim == two
    # chi_x, chi_y, chi_x, ... after the prefix: x /\ y = 0 and x \/ y = 1
    li, ls, lim = cf.limits(cf.FunctionSequence((two,), (chi_x, chi_y)))
    assert (li, ls, lim) == (cf.constant(F(0), b4), cf.constant(F(1), b4), None)
    li, ls, lim = cf.limits(cf.FunctionSequence((), (chi_x, two, chi_x)))
    assert (li, ls, lim) == (chi_x, two, None)
    assert cf.limits(cf.FunctionSequence((chi_y,), (two, two)))[2] == two


def test_limit_of_harmonic_sequence_is_zero(b4):
    prefix = tuple(cf.constant(F(1, n), b4) for n in range(1, 13))
    li, ls, lim = cf.limits(cf.FunctionSequence(prefix, cf.constant(F(0), b4)))
    assert lim == cf.constant(F(0), b4)
    assert li == ls


# -- randomized comparison against the pointwise oracle --------------------------


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pointwise3, pointwise3)
def test_add_matches_pointwise_oracle(u, v):
    f, g = cut_from_pointwise(B8, ATOMS3, u), cut_from_pointwise(B8, ATOMS3, v)
    assert cf.add(f, g) == cut_from_pointwise(B8, ATOMS3, padd(u, v))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(nonneg_pointwise3, nonneg_pointwise3)
def test_mul_matches_pointwise_oracle(u, v):
    f, g = cut_from_pointwise(B8, ATOMS3, u), cut_from_pointwise(B8, ATOMS3, v)
    assert cf.mul_nonneg(f, g) == cut_from_pointwise(B8, ATOMS3, pmul(u, v))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pointwise3, pointwise3)
def test_join_meet_match_pointwise_oracle(u, v):
    f, g = cut_from_pointwise(B8, ATOMS3, u), cut_from_pointwise(B8, ATOMS3, v)
    j, m = cf.join_meet(f, g)
    assert j == cut_from_pointwise(B8, ATOMS3, pjoin(u, v))
    assert m == cut_from_pointwise(B8, ATOMS3, pmeet(u, v))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(pointwise3, pointwise3)
def test_leq_matches_pointwise_oracle(u, v):
    f, g = cut_from_pointwise(B8, ATOMS3, u), cut_from_pointwise(B8, ATOMS3, v)
    assert cf.leq(f, g) == all(u[x] <= v[x] for x in ATOMS3)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pointwise3, st.sampled_from(fractions_upto(-4, 4, 3)))
def test_scale_matches_pointwise_oracle(u, lam):
    f = cut_from_pointwise(B8, ATOMS3, u)
    assert cf.scale(lam, f) == cut_from_pointwise(B8, ATOMS3, pscale(lam, u))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pointwise3, pointwise3, pointwise3)
def test_add_is_associative_and_commutative(u, v, w):
    f, g, h = (cut_from_pointwise(B8, ATOMS3, d) for d in (u, v, w))
    assert cf.add(f, g) == cf.add(g, f)
    assert cf.add(cf.add(f, g), h) == cf.add(f, cf.add(g, h))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(nonneg_pointwise3, nonneg_pointwise3, nonneg_pointwise3)
def test_mul_distributes_over_add(u, v, w):
    f, g, h = (cut_from_pointwise(B8, ATOMS3, d) for d in (u, v, w))
    assert cf.mul_nonneg(f, cf.add(g, h)) == cf.add(cf.mul_nonneg(f, g), cf.mul_nonneg(f, h))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pointwise3, pointwise3, pointwise3)
def test_add_is_monotone(u, v, w):
    f, g, h = (cut_from_pointwise(B8, ATOMS3, d) for d in (u, v, w))
    if cf.leq(f, g):
        assert cf.leq(cf.add(f, h), cf.add(g, h))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pointwise3, pointwise3)
def test_scale_preserves_or_reverses_order(u, v):
    f, g = cut_from_pointwise(B8, ATOMS3, u), cut_from_pointwise(B8, ATOMS3, v)
    if cf.leq(f, g):
        assert cf.leq(cf.scale(F(3), f), cf.scale(F(3), g))
        assert cf.leq(cf.scale(F(-3), g), cf.scale(F(-3), f))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pointwise3)
def test_parts_decomposition_matches_oracle(u):
    # f+ = f \/ 0, f- = (-f) \/ 0 and |f| = f+ + f-, with f = f+ - f-
    f = cut_from_pointwise(B8, ATOMS3, u)
    zero = cf.constant(F(0), B8)
    fp, fn = cf.join_meet(f, zero)[0], cf.join_meet(cf.negate(f), zero)[0]
    fa = cf.add(fp, fn)
    assert cf.add(fp, cf.negate(fn)) == f
    assert cf.join_meet(fp, fn)[1] == zero
    assert fp == cut_from_pointwise(B8, ATOMS3, {x: max(v, F(0)) for x, v in u.items()})
    assert fn == cut_from_pointwise(B8, ATOMS3, {x: max(-v, F(0)) for x, v in u.items()})
    assert fa == cut_from_pointwise(B8, ATOMS3, {x: abs(v) for x, v in u.items()})


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pointwise3)
def test_generation_round_trip(u):
    # a function is generated by its two ladders over its breakpoints
    f = cut_from_pointwise(B8, ATOMS3, u)
    assert cf.CutFunction(B8, f.breakpoints, f.upper, f.lower) == f
