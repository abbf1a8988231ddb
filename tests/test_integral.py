from fractions import Fraction as F
from random import Random

import pytest

import locint.cutfunction as cf
import locint.simple as sf
from _oracle import CORPUS, POSETS, entry
from locint.corpus import corpus, random_measure, random_simple
from locint.errors import MalformedDocument, NotIntegrable, NotNonnegative
from locint.integrate import (
    INTEGRABLE_NOT_SUMMABLE,
    SUMMABLE,
    indefinite_integral,
    integral_of_representation,
    integrate_general,
    integrate_simple,
    nonnegativity_certificate,
    restrict_vs_multiply,
    summability,
)
from locint.measure import measure_from_weights
from locint.rationals import NEG_INF, POS_INF


@pytest.fixture(scope="module")
def setting(b4):
    frame = b4.congruence_frame()
    facade = frame.as_lattice()
    nx = frame.closed_sublocale("x").partition_name()
    ny = frame.closed_sublocale("y").partition_name()
    mu = measure_from_weights(frame, {"x": F(2), "y": F(3)})
    return frame, facade, nx, ny, mu


def test_constant_one_integrates_to_total_mass(setting):
    frame, facade, nx, ny, mu = setting
    value, report = integrate_simple(sf.constant_simple(F(1), facade), mu)
    assert value == 5 and report.classification == SUMMABLE


def test_zero_integrates_to_zero(setting):
    frame, facade, nx, ny, mu = setting
    for s in frame.congruences:
        assert integrate_simple(sf.zero(facade), mu, s)[0] == 0


def test_weighted_sum_example(setting):
    frame, facade, nx, ny, mu = setting
    g = sf.canonicalize(facade, [(F(2), nx), (F(3), ny)])
    assert integrate_simple(g, mu)[0] == 13
    assert integrate_simple(g, mu, frame.resolve_ref("open:x"))[0] == 4


def test_signed_with_infinite_weight(b4, setting):
    frame, facade, nx, ny, _ = setting
    mu = measure_from_weights(frame, {"x": F(2), "y": POS_INF})
    g = sf.canonicalize(facade, [(F(2), nx), (F(-3), ny)])
    value, report = integrate_simple(g, mu)
    assert value is NEG_INF
    assert report.classification == INTEGRABLE_NOT_SUMMABLE
    assert report.positive_part == 4 and report.negative_part is POS_INF


def test_not_integrable_raises(b4, setting):
    frame, facade, nx, ny, _ = setting
    mu = measure_from_weights(frame, {"x": POS_INF, "y": POS_INF})
    g = sf.canonicalize(facade, [(F(-1), nx), (F(1), ny)])
    with pytest.raises(NotIntegrable):
        integrate_simple(g, mu)
    assert summability(g, mu).classification == "not-integrable"


def test_zero_times_infinity_in_the_sum(b4, setting):
    frame, facade, nx, ny, _ = setting
    mu = measure_from_weights(frame, {"x": F(2), "y": POS_INF})
    g = sf.canonicalize(facade, [(F(0), ny), (F(2), nx)])
    value, report = integrate_simple(g, mu)
    assert value == 4 and report.classification == SUMMABLE


def test_restrict_vs_multiply(setting):
    frame, facade, nx, ny, mu = setting
    g = sf.canonicalize(facade, [(F(2), nx), (F(3), ny)])
    w = restrict_vs_multiply(g, mu, frame.resolve_ref("open:x"))
    assert w.restricted == w.multiplied == 4
    w = restrict_vs_multiply(sf.zero(facade), mu, frame.resolve_ref("open:y"))
    assert w.restricted == w.multiplied == 0
    w = restrict_vs_multiply(sf.constant_simple(F(1), facade), mu, frame.bottom)
    assert w.restricted == w.multiplied == 0


def test_indefinite_integral_example(setting):
    frame, facade, nx, ny, mu = setting
    g = sf.canonicalize(facade, [(F(2), nx), (F(3), ny)])
    eta = indefinite_integral(g, mu)
    assert eta.value(frame.bottom) == 0
    assert eta.value(frame.resolve_ref("open:x")) == 4
    assert eta.value(frame.resolve_ref("open:y")) == 9
    assert eta.value(frame.top) == 13
    assert indefinite_integral(sf.zero(facade), mu).value(frame.top) == 0
    eta1 = indefinite_integral(sf.constant_simple(F(1), facade), mu)
    for s in frame.congruences:
        assert eta1.value(s) == mu.value(s)


INDEFINITE = CORPUS + POSETS[:6] + ("chain9",)


@pytest.mark.parametrize("name", INDEFINITE, ids=[f"{name}-lat{i}" for i, name in enumerate(INDEFINITE)])
def test_indefinite_integral_is_the_integral_over_each_sublocale(name):
    # summed from the atoms, checked against the integral over every S;
    # +inf atom weights and zero coefficients make 0 * inf terms
    _, _, frame, facade = entry(name)
    rng = Random(name)
    for _ in range(8):
        mu = random_measure(rng, frame, inf_probability=0.3)
        g = random_simple(rng, facade, nonneg=True, coeff_hi=2, denominators=(1, 2))
        eta = indefinite_integral(g, mu)
        for s, v in eta.items():
            assert v == integrate_simple(g, mu, s)[0]


def test_indefinite_needs_nonnegative(setting):
    frame, facade, nx, ny, mu = setting
    with pytest.raises(NotNonnegative):
        indefinite_integral(sf.canonicalize(facade, [(F(-1), nx)]), mu)


def test_nonnegativity_certificate_examples(setting):
    frame, facade, nx, ny, mu = setting
    g = sf.canonicalize(facade, [(F(-1), ny), (F(2), nx)])
    assert nonnegativity_certificate(g, mu, frame.resolve_ref("open:x"))
    assert integrate_simple(g, mu, frame.resolve_ref("open:x"))[0] == 4
    gpos = sf.canonicalize(facade, [(F(1), nx), (F(2), ny)])
    assert nonnegativity_certificate(gpos, mu, frame.resolve_ref("open:y"))
    assert not nonnegativity_certificate(sf.constant_simple(F(-1), facade), mu, frame.top)


def test_certificate_rejects_a_sublocale_of_another_lattice(setting, c3):
    """Every congruence of c3 against a B4 measure raises as
    ``integrate_simple`` does, whether the certificate would fail or hold."""
    frame, facade, nx, ny, mu = setting
    for s in c3.congruence_frame().congruences:
        for g in (sf.constant_simple(F(-1), facade), sf.constant_simple(F(1), facade)):
            with pytest.raises(MalformedDocument, match="is not a congruence of this lattice"):
                nonnegativity_certificate(g, mu, s)


def test_representation_independence_with_null_negative_terms(setting):
    frame, facade, nx, ny, mu = setting
    g = sf.canonicalize(facade, [(F(2), nx), (F(3), ny)])
    rep = [(F(3), ny), (F(2), nx), (F(-5), facade.bottom)]
    assert integral_of_representation(rep, mu) == 13
    # the negative coefficient can only ride on a null part
    s_bottom = frame.complement(frame.congruence_of_element(facade.bottom))
    assert mu.value(s_bottom) == 0


def test_general_integral_consistency(setting):
    frame, facade, nx, ny, mu = setting
    g = sf.canonicalize(facade, [(F(2), nx), (F(3), ny)])
    assert integrate_general(sf.to_cut_function(g), mu) == 13
    assert integrate_general(sf.to_cut_function(sf.zero(facade)), mu) == 0
    assert integrate_general(cf.constant(POS_INF, facade), mu) is POS_INF


def test_general_integral_of_partially_infinite_function(setting):
    frame, facade, nx, ny, mu = setting
    # +inf on o(x), 1 on o(y)
    f = cf.CutFunction(facade, (F(1),),
                       (facade.top, nx), (facade.bottom, facade.complement(nx)))
    assert integrate_general(f, mu) is POS_INF
    # with a measure that kills o(x), only the finite part remains
    mu0 = measure_from_weights(frame, {"x": F(0), "y": F(3)})
    assert integrate_general(f, mu0) == 3


def test_general_integral_dominates_minorants(setting):
    frame, facade, nx, ny, mu = setting
    rng = Random(11)
    f = sf.to_cut_function(sf.canonicalize(facade, [(F(1), nx), (F(4), ny)]))
    sup = integrate_general(f, mu)
    found_equal = False
    for _ in range(100):
        g = random_simple(rng, facade, nonneg=True, coeff_hi=4)
        gc = sf.to_cut_function(g)
        minorant = cf.join_meet(gc, f)[1]  # g /\ f <= f
        value = integrate_general(minorant, mu)
        from locint.rationals import ext_le
        assert ext_le(value, sup)
        if value == sup:
            found_equal = True
    assert found_equal  # the staircase bound is attained


def test_sigma_continuity_on_stabilizing_chains():
    # increasing chains in S(L) stabilise, and the integral reaches the join
    rng = Random(9)
    from locint.rationals import ext_le
    for _, _, frame, facade in corpus():
        for _ in range(10):
            mu = random_measure(rng, frame, inf_probability=0.1)
            g = random_simple(rng, facade, nonneg=True, coeff_hi=5)
            chain = [frame.bottom]
            for _ in range(3):
                s = frame.congruences[rng.randrange(len(frame.congruences))]
                chain.append(frame.join(chain[-1], s))
            limit_sub = chain[-1]
            values = [integrate_simple(g, mu, s)[0] for s in chain]
            for a, b in zip(values, values[1:]):
                assert ext_le(a, b)
            assert values[-1] == integrate_simple(g, mu, limit_sub)[0]


def test_scalar_linearity_and_monotonicity_random():
    rng = Random(5)
    for _, _, frame, facade in corpus():
        for _ in range(20):
            mu = random_measure(rng, frame)
            g = random_simple(rng, facade, coeff_lo=-5, coeff_hi=5)
            lam = F(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            from locint.rationals import ext_scale
            assert (integrate_simple(sf.sf_scale(lam, g), mu)[0]
                    == ext_scale(lam, integrate_simple(g, mu)[0]))
            d = random_simple(rng, facade, nonneg=True, coeff_hi=4)
            from locint.rationals import ext_le
            assert ext_le(integrate_simple(g, mu)[0],
                          integrate_simple(sf.sf_add(g, d), mu)[0])
