"""Differential tests for the Birkhoff core: C(L) built from keep-masks
over J(L) against the union-find closure oracle, the additive measure
check against the exhaustive M1-M3 sweep, and the join-primality
distributivity check against the triple sweep."""

from fractions import Fraction as F
from functools import lru_cache
from random import Random

import pytest

from _oracle import (
    closure,
    closure_congruences,
    closure_join,
    downset_lattice,
    first_distributivity_failure,
)
from locint.congruence import (
    Congruence,
    congruence_join,
    congruence_meet,
    principal_congruence,
)
from locint.corpus import divisor_lattice, random_measure
from locint.errors import AxiomViolation, NotDistributive
from locint.lattice import chain_lattice, lattice_from_order, powerset_lattice
from locint.measure import check_axioms, is_additive, validate_measure
from locint.rationals import POS_INF

SMALL = [f"poset{seed}" for seed in range(14)]
LARGE = ["b32", "div360", "chain8", "chain9"]


@lru_cache(maxsize=None)
def lattice(name):
    if name.startswith("poset"):
        rng = Random(int(name[5:]))
        return downset_lattice(rng, rng.randint(1, 6))
    return {
        "b32": lambda: powerset_lattice(["a", "b", "c", "d", "e"]),
        "div360": lambda: divisor_lattice(360),
        "chain8": lambda: chain_lattice([f"e{i}" for i in range(8)]),
        "chain9": lambda: chain_lattice([f"e{i}" for i in range(9)]),
    }[name]()


@lru_cache(maxsize=None)
def oracle(name):
    return closure_congruences(lattice(name))


def pairs_to_check(name, frame):
    """Every pair on the small lattices, a seeded sample on the large ones."""
    n = frame.size
    if name in SMALL:
        return [(i, j) for i in range(n) for j in range(n)]
    rng = Random(n)
    return [(rng.randrange(n), rng.randrange(n)) for _ in range(60)]


def test_small_corpus_is_varied():
    sizes = {lattice(name).size for name in SMALL}
    counts = {lattice(name).congruence_frame().size for name in SMALL}
    assert len(sizes) >= 5 and max(counts) >= 32


@pytest.mark.parametrize("name", SMALL + LARGE)
def test_same_congruences_order_and_names(name):
    lat = lattice(name)
    frame = lat.congruence_frame()
    expected = oracle(name)
    assert [c.block_of for c in frame.congruences] == [c.block_of for c in expected]
    assert ([c.partition_name() for c in frame.congruences]
            == [c.partition_name() for c in expected])
    view = frame.view()
    names = [view.ref_name(s) for s in view.sublocales]
    assert len(set(names)) == len(names)
    for s, ref in zip(view.sublocales, names):
        assert view.resolve_ref(ref) == s


@pytest.mark.parametrize("name", SMALL + LARGE)
def test_meet_join_complement_match_closure(name):
    lat = lattice(name)
    frame = lat.congruence_frame()
    cons = frame.congruences
    eq, everything = Congruence.equality(lat), Congruence.all_pairs(lat)
    for i, j in pairs_to_check(name, frame):
        c, d = cons[i], cons[j]
        expected_join = closure_join(c, d)
        assert frame.meet(c, d) == congruence_meet(c, d)
        assert frame.join(c, d) == expected_join
        assert congruence_join(c, d) == expected_join
    for c in cons:
        comp = frame.complement(c)
        assert congruence_meet(c, comp) == eq
        assert closure_join(c, comp) == everything


@pytest.mark.parametrize("name", SMALL)
def test_principal_congruences_match_closure(name):
    lat = lattice(name)
    for i, a in enumerate(lat.elements):
        for j, b in enumerate(lat.elements):
            expected = Congruence(lat, closure(lat, [(i, j)]))
            assert principal_congruence(lat, a, b) == expected


@pytest.mark.parametrize("name", SMALL + ["b32", "div360"])
def test_view_tables_match_partition_order(name):
    view = lattice(name).congruence_frame().view()
    subs = view.sublocales
    n = len(subs)
    order = [(i, j) for i in range(n) for j in range(n)
             if i != j and subs[j].refines(subs[i])]
    assert view.order_pairs() == order
    atoms = [s for s in subs if s != view.bottom
             and all(t == view.bottom or t == s or not view.leq(t, s) for t in subs)]
    assert list(view.atoms()) == atoms
    index = {s.block_of: k for k, s in enumerate(subs)}
    for i, j, m, jn in view.modularity_pairs()[:400]:
        assert index[closure_join(subs[i], subs[j]).block_of] == m
        assert index[congruence_meet(subs[i], subs[j]).block_of] == jn


def test_facade_is_the_inclusion_order():
    for name in SMALL[:6] + ["div360"]:
        frame = lattice(name).congruence_frame()
        facade = frame.as_lattice()
        for c in frame.congruences:
            for d in frame.congruences:
                assert facade.leq(c.partition_name(), d.partition_name()) == c.refines(d)


# -- additive measure check versus the exhaustive sweep ----------------------------


def outcome(fn, *args):
    try:
        fn(*args)
    except AxiomViolation as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", SMALL[:8] + ["div360"])
def test_additive_check_agrees_with_exhaustive_sweep(name):
    view = lattice(name).congruence_frame().view()
    rng = Random(len(view.sublocales))
    valid = perturbed = 0
    for _ in range(12):
        mu = random_measure(rng, view, inf_probability=0.15)
        table = [v for _, v in mu.items()]
        assert is_additive(view, table) and outcome(check_axioms, view, table) is None
        valid += 1
        k = rng.randrange(len(table))
        table[k] = rng.choice([F(rng.randint(0, 30), rng.randint(1, 3)), POS_INF, F(0)])
        expected = outcome(check_axioms, view, table)
        assert is_additive(view, table) == (expected is None)
        values = dict(zip(view.sublocales, table))
        assert outcome(validate_measure, view, values) == expected
        perturbed += expected is not None
    assert valid == 12 and perturbed >= 1


# -- distributivity: join-primality versus the triple sweep ------------------------


N5 = (["0", "a", "b", "c", "1"], [("0", "a"), ("a", "b"), ("b", "1"), ("0", "c"), ("c", "1")])
M3 = (["0", "a", "b", "c", "1"], [("0", "a"), ("0", "b"), ("0", "c"),
                                   ("a", "1"), ("b", "1"), ("c", "1")])


def stacked(rng, blocks):
    """Ordinal sum of the given (elements, pairs) lattices, with the
    element list shuffled so the failing triple moves around."""
    elements, pairs = [], []
    for k, (els, ps) in enumerate(blocks):
        names = [f"{k}.{e}" for e in els]
        pairs += [(f"{k}.{a}", f"{k}.{b}") for a, b in ps]
        pairs += [(x, y) for x in elements for y in names]
        elements += names
    rng.shuffle(elements)
    return elements, pairs


def test_distributivity_failures_name_the_first_triple():
    rng = Random(5)
    for trial in range(12):
        bad = N5 if trial % 2 else M3
        good = downset_lattice(rng, rng.randint(1, 3))
        good_block = (list(good.elements),
                      [(a, b) for a in good.elements for b in good.elements if good.leq(a, b)])
        blocks = [good_block, bad] if rng.random() < 0.5 else [bad, good_block]
        elements, pairs = stacked(rng, blocks)
        with pytest.raises(NotDistributive) as err:
            lattice_from_order(elements, pairs)
        # the same order, checked as a plain relation
        index = {e: i for i, e in enumerate(elements)}
        leq = {(index[a], index[b]) for a, b in pairs} | {(i, i) for i in range(len(elements))}
        changed = True
        while changed:
            extra = {(a, d) for a, b in leq for c, d in leq if b == c} - leq
            changed = bool(extra)
            leq |= extra
        n = len(elements)

        def meet(x, y):
            lows = [z for z in range(n) if (z, x) in leq and (z, y) in leq]
            return next(z for z in lows if all((w, z) in leq for w in lows))

        def join(x, y):
            ups = [z for z in range(n) if (x, z) in leq and (y, z) in leq]
            return next(z for z in ups if all((z, w) in leq for w in ups))

        a, b, c = first_distributivity_failure(elements, meet, join)
        assert str(err.value) == f"distributivity fails on the triple ({a!r}, {b!r}, {c!r})"


@pytest.mark.parametrize("name", SMALL + LARGE)
def test_distributive_corpus_passes_the_triple_sweep(name):
    lat = lattice(name)
    if lat.size <= 32:
        idx = lat.index
        assert first_distributivity_failure(
            lat.elements,
            lambda x, y: idx(lat.meet(lat.elements[x], lat.elements[y])),
            lambda x, y: idx(lat.join(lat.elements[x], lat.elements[y]))) is None
    assert lat.congruence_frame().as_lattice().is_boolean()
