"""Differential tests for the integer ladder and integral kernels.

``add``, ``mul_nonneg``, ``leq``, ``join_meet``, ``seq_inf``/``seq_sup``,
``negate``, ``scale``, ``limits``, ``to_cut_function``, ``cut_to_simple``
and the ``decompose_trace`` steps run on ints over a common denominator
and on J-masks, and the integrals (``summability``, ``integrate_simple``,
``indefinite_integral``, ``integrate_general`` and
``nonnegativity_certificate``) on the value at each point of J(L).  Each is
compared here with the Fraction and name code it replaced, kept in
``_oracle``: the same ladders, terms and values, or the same exception
class and message.  Each ladder a kernel builds also equals, and hashes
as, the same ladders built through the public constructor.  Inputs
come from the corpus, from seeded downset lattices, from the congruence
frame facades C(L) of the 8-element chain and of B64, from the one-element
carrier, and from a hypothesis strategy with coprime and large
denominators, negative and zero breakpoints and infinite ends."""

from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import (
    add_by_fractions,
    certificate_by_lower_cut,
    cut_from_pointwise,
    cut_to_simple_by_names,
    decompose_trace_by_names,
    downset_lattice,
    indefinite_by_atoms,
    integrate_general_by_ladders,
    join_meet_by_fractions,
    leq_by_fractions,
    limits_by_fractions,
    mul_nonneg_by_fractions,
    negate_by_fractions,
    scale_by_fractions,
    seq_inf_by_fractions,
    seq_sup_by_fractions,
    summability_by_parts,
    summability_by_terms,
    to_cut_function_by_names,
)
from locint.corpus import corpus_lattices, random_measure, random_simple
from locint.cutfunction import (
    CutFunction,
    FunctionSequence,
    _from_grid,
    add,
    constant,
    join_meet,
    leq,
    limits,
    mul_nonneg,
    negate,
    scale,
    seq_inf,
    seq_sup,
)
from locint.integrate import (
    indefinite_integral,
    integrate_general,
    integrate_simple,
    nonnegativity_certificate,
    report_value,
    summability,
)
from locint.lattice import FiniteLattice, chain_lattice, powerset_lattice
from locint.measure import Measure
from locint.rationals import NEG_INF, POS_INF
from locint.simple import (
    DECOMPOSITION_LIMIT,
    SimpleFunction,
    characteristic_simple,
    cut_to_simple,
    decompose_trace,
    sf_add,
    sf_scale,
    to_cut_function,
    zero,
)

ONE_POINT = FiniteLattice(["0"], [("0", "0")])


FRAMES = {"C(chain8)": chain_lattice([f"c{i}" for i in range(8)]).congruence_frame(),
          "C(b64)": powerset_lattice("uvwxyz").congruence_frame()}


def _carriers():
    out = dict(corpus_lattices())
    rng = Random(7)
    for k in range(8):  # |J| from 1 to 8
        out[f"downset{k}"] = downset_lattice(rng, 1 + k)
    out.update((name, frame.as_lattice()) for name, frame in FRAMES.items())
    return out


CARRIERS = _carriers()


def outcome(fn, *args):
    """("ok", value) or ("error", exception class, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the class and message are what is compared
        return ("error", type(exc), str(exc))


def ladders(f):
    return f.breakpoints, f.upper, f.lower


def same_as_public(f):
    """f equals, and hashes as, its ladders built by the public constructor."""
    k = CutFunction(f.carrier, f.breakpoints, f.upper, f.lower)
    assert f == k and hash(f) == hash(k) == hash((k.breakpoints, k.upper))
    assert f.breakpoints == k.breakpoints


def shown(result):
    """A kernel result as ladders and terms, each ladder checked against
    the public constructor."""
    if isinstance(result, CutFunction):
        same_as_public(result)
        return ladders(result)
    if isinstance(result, SimpleFunction):
        return result.terms
    if isinstance(result, tuple):
        return tuple(map(shown, result))
    return result


def compare(mine, theirs, *args):
    got, want = outcome(mine, *args), outcome(theirs, *args)
    if got[0] == "ok" and want[0] == "ok":
        got, want = ("ok", shown(got[1])), ("ok", shown(want[1]))
    assert got == want, (mine.__name__, args)


SCALARS = (F(0), F(1), F(-1), F(3, 7), F(-5, 2), F(10**9 + 7, 11))


def compare_unary(f):
    """negate, scale and cut_to_simple on f against their Fraction and
    name versions."""
    compare(negate, negate_by_fractions, f)
    for lam in SCALARS:
        compare(scale, scale_by_fractions, lam, f)
    compare(cut_to_simple, cut_to_simple_by_names, f)


def counted_fills(monkeypatch):
    """A list that grows by one at each ``CutFunction._fill`` call."""
    fills = []
    fill = CutFunction._fill
    monkeypatch.setattr(CutFunction, "_fill", lambda *args: fills.append(1) or fill(*args))
    return fills


def compare_limits(prefix, cycle, fills):
    """limits of the prefix followed by the cycle repeated, against its
    Fraction version.  Only the cycle is sampled: a call builds exactly two
    ladders, liminf and limsup, through ``_fill`` (counted in fills)."""
    def limits_of(p, c):
        before = len(fills)
        result = limits(FunctionSequence(p, c))
        assert len(fills) == before + 2, (p, c)
        return result

    compare(limits_of, limits_by_fractions, prefix, cycle)


def with_infinite_ends(f, minus, plus):
    """f with -inf on the complemented element `minus` and +inf on the
    complemented `plus` (disjoint from it): the upper cuts meet minus^c and
    join plus, the lower cuts join minus and meet plus^c."""
    lat = f.carrier
    keep, drop = lat.complement(minus), lat.complement(plus)
    return CutFunction(lat, f.breakpoints,
                       [lat.join(lat.meet(u, keep), plus) for u in f.upper],
                       [lat.meet(lat.join(v, minus), drop) for v in f.lower])


def compare_pair(f, g):
    """Every two-argument kernel on (f, g) against its Fraction version."""
    for mine, theirs in ((leq, leq_by_fractions), (add, add_by_fractions),
                         (mul_nonneg, mul_nonneg_by_fractions)):
        for a, b in ((f, g), (g, f)):
            got, want = outcome(mine, a, b), outcome(theirs, a, b)
            if got[0] == "ok" and isinstance(got[1], CutFunction):
                got, want = ("ok", ladders(got[1])), ("ok", ladders(want[1]))
            assert got == want, (mine.__name__, a, b)
    got, want = outcome(join_meet, f, g), outcome(join_meet_by_fractions, f, g)
    if got[0] == "ok":
        assert got[1] == (seq_sup([f, g]), seq_inf([f, g])), ("join_meet", f, g)
        got = ("ok", [ladders(h) for h in got[1]])
        want = ("ok", [ladders(h) for h in want[1]])
    assert got == want, ("join_meet", f, g)


def compare_family(fs):
    for mine, theirs in ((seq_inf, seq_inf_by_fractions), (seq_sup, seq_sup_by_fractions)):
        got, want = outcome(mine, fs), outcome(theirs, fs)
        if got[0] == "ok":
            got, want = ("ok", ladders(got[1])), ("ok", ladders(want[1]))
        assert got == want, (mine.__name__, fs)


def steps_of(trace):
    return [(s.k, s.cell, s.stage.terms, s.residual_sup) for s in trace]


def compare_decompositions(f):
    """decompose_trace(f, h) for h = 1..12 against the first h steps of the
    name-based trace, and out-of-range horizons: the same k, cell, stage
    terms and residual, or the same error."""
    want = outcome(decompose_trace_by_names, f, 12)
    for h in range(1, 13):
        got = outcome(decompose_trace, f, h)
        if want[0] == "ok":
            assert got[0] == "ok", (f, h, got)
            assert steps_of(got[1]) == steps_of(want[1][:h]), (f, h)
        else:
            assert got == want, (f, h)
    for h in (0, -3, DECOMPOSITION_LIMIT + 1):
        assert outcome(decompose_trace, f, h) == outcome(decompose_trace_by_names, f, h)


def _functions(rng, lat):
    """Finite, nonnegative, constant and extended functions on lat."""
    fs = [constant(v, lat) for v in (F(0), F(-2, 3), POS_INF, NEG_INF)]
    for _ in range(6):
        fs.append(to_cut_function(random_simple(rng, lat, max_parts=4)))
        fs.append(to_cut_function(random_simple(rng, lat, nonneg=True, max_parts=4,
                                                 denominators=(1, 7, 11))))
    comp = [c for c in lat.complemented_elements() if c != lat.top]
    for f in fs[4:8]:
        minus = rng.choice(comp)
        plus = rng.choice([c for c in comp if lat.meet(c, minus) == lat.bottom])
        fs.append(with_infinite_ends(f, minus, plus))
    return fs


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_ladder_kernels_match_the_fraction_kernels(name):
    lat = CARRIERS[name]
    rng = Random(f"int-kernels-{name}")
    fs = _functions(rng, lat)
    for _ in range(40):
        compare_pair(rng.choice(fs), rng.choice(fs))
    for _ in range(10):
        compare_family(rng.sample(fs, rng.randint(1, 4)))
    compare_family([])


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_negate_scale_limits_and_cells_match_the_fraction_code(name, monkeypatch):
    """limits on prefixes of 0 to 7 members and cycles of 1 to 4, finite
    and extended, repeats allowed."""
    lat = CARRIERS[name]
    rng = Random(f"unary-{name}")
    fs = _functions(rng, lat)
    for f in fs:
        compare_unary(f)
    fills = counted_fills(monkeypatch)
    for _ in range(8):
        prefix = rng.choices(fs, k=rng.randint(0, 7))
        compare_limits(prefix, rng.choices(fs, k=rng.randint(1, 4)), fills)


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_kernel_results_equal_their_ladders_built_by_name(name):
    """add, mul_nonneg, join_meet and seq_inf/seq_sup build from ints and
    masks; each result equals and hashes as its public rebuild."""
    lat = CARRIERS[name]
    rng = Random(f"public-{name}")
    fs = _functions(rng, lat)
    for _ in range(20):
        f, g = rng.choice(fs), rng.choice(fs)
        for kernel in (add, mul_nonneg, join_meet):
            shown(outcome(kernel, f, g)[1])
        for kernel in (seq_inf, seq_sup):
            shown(outcome(kernel, [f, g])[1])


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_to_cut_function_matches_the_name_based_joins(name, monkeypatch):
    """From the vector of a sum, before and after its terms are read.  The
    ladder is built unchecked: it equals the one the checked builder
    ``_from_grid`` makes of the same grid and ladder, and no conversion
    calls ``_fill``."""
    lat = CARRIERS[name]
    rng = Random(f"to-cut-{name}")
    fills = counted_fills(monkeypatch)

    def converted(g):
        before = len(fills)
        f = to_cut_function(g)
        assert len(fills) == before
        assert f == _from_grid(lat, f._den, f._grid, f._up)
        return f

    for _ in range(10):
        g = random_simple(rng, lat, max_parts=4, denominators=(1, 7, 11, 10**9 + 7))
        h = random_simple(rng, lat, max_parts=4)
        from_vector = converted(sf_add(g, h))  # before anything reads the terms
        same_as_public(from_vector)
        total = sf_add(g, h)
        assert ladders(from_vector) == ladders(to_cut_function_by_names(total))
        compare(converted, to_cut_function_by_names, total)
    assert fills  # the counter sees the checked builders


def test_one_element_carrier():
    flat = CutFunction(ONE_POINT, (), ("0",), ("0",))
    fs = [flat, constant(F(3), ONE_POINT), constant(POS_INF, ONE_POINT)]
    for f in fs:
        for g in fs:
            compare_pair(f, g)
    compare_family(fs)
    other = constant(F(0), CARRIERS["b4"])
    compare_pair(flat, other)  # different carriers
    compare_family([flat, other])


def test_unary_kernels_on_the_one_element_carrier(monkeypatch):
    flat = CutFunction(ONE_POINT, (), ("0",), ("0",))
    fs = [flat, constant(F(3), ONE_POINT), constant(POS_INF, ONE_POINT)]
    for f in fs:
        compare_unary(f)
        compare_decompositions(f)
    fills = counted_fills(monkeypatch)
    rng = Random("unary-one-point")
    for n in range(8):
        compare_limits(rng.choices(fs, k=n), rng.choices(fs, k=rng.randint(1, 4)), fills)
    compare_limits([flat], [constant(F(0), CARRIERS["b4"])], fills)  # different carriers
    compare_limits([], [flat, constant(F(0), CARRIERS["b4"])], fills)


def _decomposable(rng, lat):
    """_functions on lat, and nonnegative functions that are +inf on a
    complemented element."""
    fs = _functions(rng, lat)
    comp = lat.complemented_elements()
    for f in [f for f in fs if f.is_finite() and f.is_nonnegative()][:6]:
        fs.append(with_infinite_ends(f, lat.bottom, rng.choice(comp)))
    return fs


@pytest.mark.parametrize("name", sorted(CARRIERS))
def test_decomposition_matches_the_name_based_steps(name):
    lat = CARRIERS[name]
    for f in _decomposable(Random(f"decompose-{name}"), lat):
        compare_decompositions(f)


@pytest.mark.parametrize("name", ["b4", "b8", "div12", "c3"])
def test_summability_matches_the_parts(name):
    frame = corpus_lattices()[name].congruence_frame()
    facade = frame.as_lattice()
    rng = Random(f"summability-{name}")
    measures = [random_measure(rng, frame, inf_probability=p) for p in (0.0, 0.3, 0.6)]
    subs = [None] + list(frame.congruences)
    for _ in range(60):
        g = random_simple(rng, facade, max_parts=4, denominators=(1, 7, 11, 10**9 + 7))
        if rng.random() < 0.3:
            g = sf_scale(F(-1, 10**9 + 7), g)
        mu, over = rng.choice(measures), rng.choice(subs)
        assert summability(g, mu, over) == summability_by_parts(g, mu, over), (g, over)


INTEGRAL_FRAMES = {**{f"C({n})": lat.congruence_frame() for n, lat in corpus_lattices().items()},
                   **FRAMES}


@pytest.mark.parametrize("name", sorted(INTEGRAL_FRAMES))
def test_integrals_match_the_sums_by_names(name):
    """Every integral over every sublocale, against the term, cell and
    ladder sums by name; signed, vector-held and extended integrands under
    measures with +inf atoms."""
    frame = INTEGRAL_FRAMES[name]
    facade = frame.as_lattice()
    rng = Random(f"integrals-{name}")
    measures = [random_measure(rng, frame, inf_probability=p) for p in (0.0, 0.3, 0.6)]
    simples = [random_simple(rng, facade, max_parts=4, denominators=(1, 7, 11, 10**9 + 7))
               for _ in range(4)]
    simples += [sf_add(g, h) for g, h in zip(simples, simples[1:])]  # vector-held
    nonneg = [random_simple(rng, facade, nonneg=True, coeff_hi=3) for _ in range(2)]
    cuts = _functions(rng, facade)
    for mu in measures:
        for g in nonneg:
            eta = indefinite_integral(g, mu)
            assert list(eta.items()) == list(indefinite_by_atoms(g, mu).items())
        for s in [None, *frame.congruences]:
            for g in simples:
                assert summability(g, mu, s) == summability_by_terms(g, mu, s), (g, s)
                report = summability_by_terms(g, mu, s)
                assert outcome(integrate_simple, g, mu, s) == outcome(
                    lambda: (report_value(report), report))
                if s is not None:
                    assert (outcome(nonnegativity_certificate, g, mu, s)
                            == outcome(certificate_by_lower_cut, g, mu, s))
            for f in cuts:
                assert (outcome(integrate_general, f, mu, s)
                        == outcome(integrate_general_by_ladders, f, mu, s)), (f, s)


def _edge_measures(rng, frame):
    """Measures whose atom values mix 0, +inf and finite values, plus the
    all-0 and the all-+inf measure."""
    n = len(frame.lattice._jirr)
    draws = [[rng.choice((F(0), POS_INF, F(rng.randint(1, 9), rng.choice((1, 2, 7)))))
              for _ in range(n)] for _ in range(4)]
    return [Measure(frame, values) for values in draws + [[F(0)] * n, [POS_INF] * n]]


@pytest.mark.parametrize("seed", range(6))
def test_the_int_signed_sum_matches_the_sums_by_names(seed):
    """The int signed sum against the term sums and the part sums by name,
    which read the measure's table of subset sums: on seeded down-set
    lattices beyond the corpus, over every sublocale, under measures with
    +inf and 0 atoms, for functions that are 0 on some points (0 * inf = 0)
    and for extended functions with +-inf values."""
    rng = Random(f"signed-sum-{seed}")
    frame = downset_lattice(rng, rng.randint(1, 4)).congruence_frame()
    facade = frame.as_lattice()
    comp = facade.complemented_elements()
    simples = [zero(facade), characteristic_simple(rng.choice(comp), facade)]
    simples += [random_simple(rng, facade, max_parts=4, denominators=(1, 3, 7)) for _ in range(4)]
    cuts = [with_infinite_ends(to_cut_function(g), *ends) for g in simples
            for ends in ((facade.bottom, facade.bottom), (rng.choice(comp), facade.bottom))]
    cuts += [with_infinite_ends(to_cut_function(zero(facade)), facade.bottom, a) for a in comp]
    for mu in _edge_measures(rng, frame):
        for s in [None, *frame.congruences]:
            for g in simples:
                report = summability(g, mu, s)
                assert report == summability_by_terms(g, mu, s) == summability_by_parts(g, mu, s)
            for f in cuts:
                assert (outcome(integrate_general, f, mu, s)
                        == outcome(integrate_general_by_ladders, f, mu, s)), (f, s)


# -- coprime and large denominators ----------------------------------------------

ATOMS = ("x", "y", "z")
B8 = powerset_lattice(ATOMS)
DENOMINATORS = (1, 7, 11, 10**9 + 7)
values = st.builds(F, st.integers(-40, 40), st.sampled_from(DENOMINATORS))
pointwise = st.fixed_dictionaries({a: values for a in ATOMS})
ends = st.sampled_from([("0", "0"), ("x", "0"), ("0", "y"), ("x", "{y,z}"), ("z", "x")])


def _function(point_values, end):
    f = cut_from_pointwise(B8, ATOMS, point_values)
    return with_infinite_ends(f, *end)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(pointwise, pointwise, ends, ends, st.booleans())
def test_kernels_on_coprime_and_large_denominators(u, v, end_u, end_v, mirror):
    f, g = _function(u, end_u), _function(v, end_v)
    if mirror:
        g = negate(g)
    compare_pair(f, g)
    compare_pair(cut_from_pointwise(B8, ATOMS, {a: abs(r) for a, r in u.items()}),
                 cut_from_pointwise(B8, ATOMS, {a: abs(r) for a, r in v.items()}))
    compare_family([f, g, negate(f)])
