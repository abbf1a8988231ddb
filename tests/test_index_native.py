"""Differential tests for the index-native term and ladder code.

``canonicalize`` (and the constructor built on it), the refinement
products, the positive and negative parts and the ``CutFunction`` checks
run on element indices.  Each is compared here with the name-based code it
replaced, kept in ``_oracle``: the same terms and ladders, or the same
exception class and message.  The ladder checks are run twice: through the
public constructor on names and Fractions, and through the private builder
``_from_grid`` on the upper ladder alone as an int grid and J-masks, whose
complement is the lower ladder.  Inputs come from the corpus, from seeded
downset lattices, from congruence-frame facades C(L) and from the
one-element carrier.  Every public builder of a simple function is checked
against ``canonicalize_by_names`` on the terms it stands for: the same
terms, coefficients, sign and hash."""

import operator
from fractions import Fraction as F
from random import Random

import pytest

import locint.simple as sf
from _oracle import (
    CORPUS,
    DOWNSETS,
    SEEDED,
    canonicalize_by_names,
    cut_ladders_by_names,
    named,
    outcome,
    refinement_by_names,
)
from locint.bridge import ClassicalSimpleFunction, FiniteMeasurableSpace, to_localic
from locint.corpus import downset_lattice, random_rational, random_simple
from locint.cutfunction import CutFunction, _from_grid, add, constant
from locint.errors import InvalidArgument, MalformedDocument, NotComplemented
from locint.lattice import FiniteLattice, chain_lattice
from locint.rationals import NEG_INF, POS_INF, over_common_denominator

ONE_POINT = FiniteLattice(["0"], [("0", "0")])


CARRIER_NAMES = CORPUS + ("chain4",) + DOWNSETS + SEEDED + tuple(
    f"C({name})" for name in ("c3", "b4", "b8", "div12", "chain4"))


def terms_of(fn):
    return lambda *args: fn(*args).terms


def ladders_of(carrier, bp, upper, lower):
    f = CutFunction(carrier, bp, upper, lower)
    return f.breakpoints, f.upper, f.lower


def ladders_from_masks(carrier, bp, upper):
    """The function with this upper ladder through the builder, as ints
    over one denominator and J-masks."""
    den, grid = over_common_denominator([F(b) for b in bp])
    f = _from_grid(carrier, den, grid, [carrier.jmask(v) for v in upper])
    return f.breakpoints, f.upper, f.lower


def with_complements(carrier, bp, upper):
    """The name-based checks on an upper ladder and its complement."""
    return cut_ladders_by_names(carrier, bp, upper, [carrier.complement(v) for v in upper])


# -- term lists ----------------------------------------------------------------


def _term_lists(rng, lat):
    """Canonical, permuted, overlapping and broken term lists on lat."""
    comp = lat.complemented_elements()
    plain = [e for e in lat.elements if e not in comp]
    lists = [[]]
    for _ in range(12):
        g = random_simple(rng, lat, max_parts=4)
        lists.append(list(g.terms))
        shuffled = list(g.terms)
        rng.shuffle(shuffled)
        lists.append(shuffled)
        lists.append([(int(r) if r.denominator == 1 else r, a) for r, a in g.terms])
    for _ in range(24):
        terms = [(random_rational(rng, -4, 4), rng.choice(comp))
                 for _ in range(rng.randint(1, 5))]
        lists.append(terms)
        broken = list(terms)
        bad = "zzz" if not plain or rng.random() < 0.5 else rng.choice(plain)
        broken.insert(rng.randrange(len(broken) + 1), (F(1), bad))
        lists.append(broken)
    # the top with a zero coefficient, the bottom, a repeated element
    lists.append([(F(0), lat.top)])
    lists.append([(F(2), lat.bottom), (F(1), lat.top)])
    lists.append([(F(1), lat.top), (F(1), lat.top)])
    return lists


def same_as_by_names(g, terms):
    """g has the terms, coefficients, sign and hash of the name-based
    canonical form of terms, and those are read off its terms."""
    want = canonicalize_by_names(g.carrier, terms).terms
    assert (g.terms, g.coefficients(), g.is_nonnegative(), hash(g)) == \
        (want, tuple(r for r, _ in want), want[0][0] >= 0, hash(want)), terms


def _builders(rng, lat):
    """(the result of each public builder, the terms it stands for)."""
    comp = lat.complemented_elements()
    out = [(sf.zero(lat), [(F(0), lat.top)])]
    for r in (F(0), F(-3, 2), F(7)):
        out.append((sf.constant_simple(r, lat), [(r, lat.top)]))
    out += [(sf.characteristic_simple(a, lat), [(F(1), a)]) for a in comp]
    for _ in range(6):
        g, h = random_simple(rng, lat, max_parts=4), random_simple(rng, lat, max_parts=4)
        t, u = list(g.terms), list(h.terms)
        lam = random_rational(rng, -4, 4)
        out += [
            (sf.SimpleFunction(lat, u + t[::-1]), t + u),
            (sf.canonicalize(lat, t[::-1] + u), t + u),
            (sf.canonicalize(lat, t), t),
            (sf.cut_to_simple(sf.to_cut_function(g)), t),
            (sf.cut_to_simple(add(sf.to_cut_function(g), sf.to_cut_function(h))), t + u),
            (sf.sf_add(g, h), t + u),
            (sf.sf_mul(g, h), [(r * s, lat.meet(a, b)) for r, a in t for s, b in u]),
            (sf.sf_scale(lam, g), [(lam * r, a) for r, a in t]),
            (sf.sf_neg(g), [(-r, a) for r, a in t]),
            (sf.abs_simple(g), [(abs(r), a) for r, a in t]),
        ]
        f = sf.to_cut_function(sf.abs_simple(g))
        steps = []
        for step in sf.decompose_trace(f, 6):
            steps.append((F(1, step.k), step.cell))
            out.append((step.stage, list(steps)))
    return out


@pytest.mark.parametrize("name", CARRIER_NAMES)
def test_canonicalize_matches_the_name_based_split(name):
    lat = named(name)
    rng = Random(f"canonicalize-{name}")
    for terms in _term_lists(rng, lat):
        want = outcome(terms_of(canonicalize_by_names), lat, terms)
        assert outcome(terms_of(sf.canonicalize), lat, terms) == want, terms
        assert outcome(terms_of(sf.SimpleFunction), lat, terms) == want, terms
    for g, terms in _builders(rng, lat):
        same_as_by_names(g, terms)


def test_canonical_input_comes_back_unchanged():
    for name in CARRIER_NAMES:
        lat, rng = named(name), Random(f"fast-{name}")
        for _ in range(10):
            g = random_simple(rng, lat, max_parts=4)
            assert sf.canonicalize(lat, g.terms).terms == g.terms


def test_one_element_carrier():
    for terms in ([], [(F(1), "0")], [(F(1), "zzz")], [(1, "0"), (2, "0")]):
        want = outcome(terms_of(canonicalize_by_names), ONE_POINT, terms)
        assert outcome(terms_of(sf.canonicalize), ONE_POINT, terms) == want
        assert outcome(terms_of(sf.SimpleFunction), ONE_POINT, terms) == want
    for build in (sf.zero, lambda lat: sf.constant_simple(F(2), lat)):
        assert outcome(build, ONE_POINT) == ("error", MalformedDocument,
                                             "simple functions need a carrier with 0 != 1")
    for bp, up, lo in (((), ("0",), ("0",)), ((F(1),), ("0", "0"), ("0", "0")),
                       ((), ("zzz",), ("0",)), ((), ("0", "0"), ("0",))):
        assert outcome(ladders_of, ONE_POINT, bp, up, lo) == \
            outcome(cut_ladders_by_names, ONE_POINT, bp, up, lo)


CHAIN3 = chain_lattice(["d", "d0", "d01"])  # the down-sets of a 2-chain


@pytest.mark.parametrize("terms, error, message", [
    ([(F(1), "d01"), (F(2), "zzz")], MalformedDocument, "unknown lattice element 'zzz'"),
    ([(F(1), ["d0"])], TypeError, "unhashable type: 'list'"),
    ([(F(1), "d01"), (F(2), "d0")], NotComplemented, "'d0' is not complemented in this lattice"),
    ([(F(1), "d0"), (F(2), "zzz")], NotComplemented, "'d0' is not complemented in this lattice"),
    ([(F(1), "zzz"), ("x", "d01")], InvalidArgument, "not a rational: 'x'"),
    # mixed faults: the coefficients first, then the names in reading order
    ([(F(1), "zzz"), (F(1), "d01"), ("1.5", "d0")], InvalidArgument, "not a rational: '1.5'"),
    ([(F(1), "d0"), (2.5, "zzz")], InvalidArgument, "not a rational: 2.5"),
    ([(F(1), ["d0"]), (True, "d01")], InvalidArgument, "not a rational: True"),
    ([(F(1), "zzz"), (F(1), ["d0"])], MalformedDocument, "unknown lattice element 'zzz'"),
    ([(F(1), ["d0"]), (F(2), "zzz")], TypeError, "unhashable type: 'list'"),
    ([(F(1), "d01"), (F(1), "d0"), (F(2), ["d0"])], NotComplemented,
     "'d0' is not complemented in this lattice"),
])
def test_canonicalize_names_the_first_fault_in_reading_order(terms, error, message):
    """A name outside the table of complemented elements goes through
    ``complement``, which names the first bad element; coefficients are
    checked before any element.  An iterator is read once, so the check
    sees every term.  The constructor raises the same."""
    for form in (list, tuple, iter, lambda t: (term for term in t)):
        for build in (sf.canonicalize, sf.SimpleFunction):
            assert outcome(build, CHAIN3, form(terms)) == ("error", error, message)


def _input_forms(terms):
    """The same sum as a list, a tuple, a generator and a reversed
    iterator, with Fraction, int (where whole) and string coefficients."""
    for coerce in (F, lambda r: r.numerator if r.denominator == 1 else r, str):
        coerced = [(coerce(r), a) for r, a in terms]
        yield list(coerced)
        yield tuple(coerced)
        yield (term for term in coerced)
        yield reversed(coerced)


@pytest.mark.parametrize("seed", range(10))
def test_one_pass_canonicalize_on_every_input_form(seed):
    """On seeded down-set lattices with |J| <= 8, drawn apart from the
    corpus: every input form gives the name-based canonical form through
    ``canonicalize`` and the constructor, and every form of a list with one
    fault appended fails as the list does.  The constructor on the
    canonical terms, and the way back from the ladder, give the same
    function."""
    rng = Random(f"one-pass-{seed}")
    lat = downset_lattice(rng, rng.randint(1, 8))
    comp = lat.complemented_elements()
    plain = [e for e in lat.elements if e not in comp] or ["zzz"]
    for _ in range(12):
        terms = [(random_rational(rng, -5, 5), rng.choice(comp))
                 for _ in range(rng.randint(1, 6))]
        want = canonicalize_by_names(lat, terms).terms
        for build in (sf.canonicalize, sf.SimpleFunction):
            for form in _input_forms(terms):
                assert build(lat, form).terms == want, terms
        g = sf.canonicalize(lat, terms)
        assert sf.SimpleFunction(lat, g.terms) == g, terms
        assert sf.cut_to_simple(sf.to_cut_function(g)) == g, terms
        broken = terms + [(F(1), rng.choice(plain))]
        want = outcome(terms_of(sf.canonicalize), lat, broken)
        assert want[0] == "error"
        for form in _input_forms(broken):  # one fault, so the order does not matter
            assert outcome(terms_of(sf.canonicalize), lat, form) == want, broken


@pytest.mark.parametrize("name", CARRIER_NAMES)
def test_refinement_products_and_parts_match_the_name_based_code(name):
    lat = named(name)
    rng = Random(f"ring-{name}")
    for _ in range(20):
        g, h = random_simple(rng, lat, max_parts=4), random_simple(rng, lat, max_parts=4)
        assert sf.sf_add(g, h).terms == refinement_by_names(g, h, operator.add).terms
        assert sf.sf_mul(g, h).terms == refinement_by_names(g, h, operator.mul).terms


# -- ladders -------------------------------------------------------------------


def _valid_ladders(rng, lat):
    out = []
    for value in (F(0), POS_INF, NEG_INF):
        f = constant(value, lat)
        out.append((f.breakpoints, f.upper, f.lower))
    for _ in range(10):
        f = sf.to_cut_function(random_simple(rng, lat, max_parts=4))
        out.append((f.breakpoints, f.upper, f.lower))
    return out


def _perturbed(rng, lat, bp, up, lo):
    """Ladders broken in each way the constructor checks, plus a redundant
    breakpoint that normalisation drops and int breakpoints."""
    bp, up, lo = list(bp), list(up), list(lo)
    out = [(bp, up[:-1], lo), (bp, up, lo + [lat.top]),
           ([int(b) if b.denominator == 1 else b for b in bp], up, lo)]
    if len(bp) >= 2:
        i = rng.randrange(len(bp) - 1)
        swapped = list(bp)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        out.append((swapped, up, lo))
        out.append((bp[:i + 1] + [bp[i]] + bp[i + 2:], up, lo))
    if bp:
        j = rng.randrange(len(bp))
        out.append((bp[:j + 1] + [bp[j] + F(1, 7)] + bp[j + 1:],
                    up[:j + 1] + [up[j + 1]] + up[j + 1:],
                    lo[:j + 1] + [lo[j + 1]] + lo[j + 1:]))
    k = rng.randrange(len(up))
    out.append((bp, up[:k] + ["zzz"] + up[k + 1:], lo))
    out.append((bp, up, lo[:k] + ["zzz"] + lo[k + 1:]))
    out.append((bp, up[:k] + ["zzz"] + up[k + 1:], lo[:k] + ["yyy"] + lo[k + 1:]))
    for e in lat.elements:
        out.append((bp, up[:k] + [e] + up[k + 1:], lo))
        out.append((bp, up, lo[:k] + [e] + lo[k + 1:]))
    if len(up) >= 2:
        out.append((bp, list(reversed(up)), lo))
        out.append((bp, up, list(reversed(lo))))
    return out


@pytest.mark.parametrize("name", CARRIER_NAMES)
def test_cut_function_checks_match_the_name_based_checks(name):
    lat = named(name)
    rng = Random(f"ladders-{name}")
    for bp, up, lo in _valid_ladders(rng, lat):
        for args in [(bp, up, lo)] + _perturbed(rng, lat, bp, up, lo):
            assert outcome(ladders_of, lat, *args) == \
                outcome(cut_ladders_by_names, lat, *args), args


@pytest.mark.parametrize("name", CARRIER_NAMES)
def test_the_builder_checks_what_the_constructor_checks(name):
    """The upper ladder of each case above as ints and J-masks, against the
    name-based checks on it and its complement.  An upper ladder with a name
    that is unknown or not complemented has no complement, and a lower
    ladder that is not the complement of the upper one reaches only the
    constructor: both are left to the test above."""
    lat = named(name)
    rng = Random(f"ladders-{name}")
    comp = set(lat.complemented_elements())
    for bp, up, lo in _valid_ladders(rng, lat):
        for args in [(bp, up)] + [a[:2] for a in _perturbed(rng, lat, bp, up, lo)]:
            if set(args[1]) <= comp:
                assert outcome(ladders_from_masks, lat, *args) == \
                    outcome(with_complements, lat, *args), args
    for args in (((), ("0",)), ((F(1),), ("0", "0")), ((), ("0", "0")),
                 ((F(1), F(1)), ("0",) * 3)):
        assert outcome(ladders_from_masks, ONE_POINT, *args) == \
            outcome(with_complements, ONE_POINT, *args)


def test_hashes_agree_with_equality():
    lat = named("div60")
    rng = Random(3)
    for _ in range(20):
        g = random_simple(rng, lat, max_parts=4)
        same = sf.canonicalize(lat, reversed(g.terms))
        assert same == g and hash(same) == hash(g) == hash(g.terms)
        f, k = sf.to_cut_function(g), sf.to_cut_function(same)
        assert f == k and hash(f) == hash(k) == hash((f.breakpoints, f.upper))
        assert len({g, same}) == 1 and len({f, k}) == 1
    # to_localic, against the nabla of each level set named by its partition
    for points in (["x"], ["x", "y"], ["p", "q", "r", "s"]):
        space = FiniteMeasurableSpace.powerset(points, {p: F(1) for p in points})
        frame = space.lattice().congruence_frame()
        for _ in range(10):
            f = ClassicalSimpleFunction(space, {p: random_rational(rng, -3, 3) for p in points})
            same_as_by_names(to_localic(f), [
                (r, frame.closed_sublocale(space.name_of(level)).partition_name())
                for r, level in f.level_sets()])
