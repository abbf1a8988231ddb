"""Differential tests for the Birkhoff core: C(L) built from keep-masks
over J(L) against the union-find closure oracle, the atom-sum measure
check against the exhaustive M1-M3 sweep, that sweep walking the
keep-masks in place against the sweep over pair lists, measures summed
over keep-masks against the per-sublocale formulas, and the join-primality
distributivity check against the triple sweep."""

import tracemalloc
from fractions import Fraction as F
from functools import lru_cache
from random import Random

import pytest

from _oracle import (
    all_pairs,
    canonical,
    check_axioms_by_pairs,
    closure,
    closure_congruences,
    closure_join,
    congruence_of,
    downset_lattice,
    first_distributivity_failure,
    modularity_pairs,
    order_pairs,
    positions,
    random_table,
    refinement_meet,
    refines,
    space_table,
    weights_table,
)
from locint.bridge import FiniteMeasurableSpace, extend_measure
from locint.corpus import corpus_lattices, divisor_lattice, random_measure, random_weight
from locint.errors import AxiomViolation, MalformedDocument, NotDistributive
from locint.lattice import (
    FiniteLattice,
    chain_lattice,
    powerset_lattice,
    subset_name,
)
from locint.measure import Measure, check_axioms, measure_from_weights, validate_measure
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
    names = [frame.ref_name(s) for s in frame.congruences]
    assert len(set(names)) == len(names)
    for s, ref in zip(frame.congruences, names):
        assert frame.resolve_ref(ref) == s


@pytest.mark.parametrize("name", SMALL + LARGE)
def test_meet_join_complement_match_closure(name):
    lat = lattice(name)
    frame = lat.congruence_frame()
    cons = frame.congruences
    eq, everything = frame.top, all_pairs(lat)
    assert eq.block_of == tuple(range(lat.size))
    # S(L) is C(L) read upside down: its join is the meet of congruences
    for i, j in pairs_to_check(name, frame):
        c, d = cons[i], cons[j]
        assert frame.join(c, d).block_of == refinement_meet(c, d)
        assert frame.meet(c, d) == closure_join(c, d)
    for c in cons:
        comp = frame.complement(c)
        assert frame.join(c, comp).block_of == refinement_meet(c, comp) == eq.block_of
        assert closure_join(c, comp) == everything


@pytest.mark.parametrize("name", SMALL)
def test_principal_congruences_match_closure(name):
    # the smallest congruence identifying a and b is the meet in C(L) of the
    # closed nabla(a \/ b) and the open delta(a /\ b), the join of their
    # sublocales in S(L)
    lat = lattice(name)
    frame = lat.congruence_frame()
    for i, a in enumerate(lat.elements):
        for j, b in enumerate(lat.elements):
            expected = canonical(closure(lat, [(i, j)]))
            theta = frame.join(frame.closed_sublocale(lat.join(a, b)),
                               frame.open_sublocale(lat.meet(a, b)))
            assert theta.block_of == expected


@pytest.mark.parametrize("name", SMALL + ["b32", "div360"])
def test_view_tables_match_partition_order(name):
    frame = lattice(name).congruence_frame()
    subs = frame.congruences
    n = len(subs)
    order = [(i, j) for i in range(n) for j in range(n)
             if i != j and refines(subs[j], subs[i])]
    assert order_pairs(frame) == order
    assert [(i, j) for i in range(n) for j in range(n)
            if i != j and frame.leq(subs[i], subs[j])] == order
    atoms = [s for s in subs if s != frame.bottom
             and all(t == frame.bottom or t == s or not frame.leq(t, s) for t in subs)]
    assert list(frame.atoms()) == atoms
    index = {s.block_of: k for k, s in enumerate(subs)}
    for i, j, m, jn in modularity_pairs(frame)[:400]:
        assert index[closure_join(subs[i], subs[j]).block_of] == m
        assert index[refinement_meet(subs[i], subs[j])] == jn


def test_facade_is_the_inclusion_order():
    for name in SMALL[:6] + ["div360"]:
        frame = lattice(name).congruence_frame()
        facade = frame.as_lattice()
        for c in frame.congruences:
            for d in frame.congruences:
                assert facade.leq(c.partition_name(), d.partition_name()) == refines(c, d)


# -- atom-sum measure check versus the exhaustive sweep ----------------------------


def outcome(fn, *args):
    try:
        fn(*args)
    except AxiomViolation as exc:
        return str(exc)
    return None


def is_atom_sum(frame, table):
    """The table is the measure built from its own atom entries."""
    pos = positions(frame)
    mu = Measure(frame, [table[pos[1 << k]] for k in range(len(frame.lattice._jirr))])
    return [v for _, v in mu.items()] == table


@pytest.mark.parametrize("name", SMALL[:8] + ["div360"])
def test_additive_check_agrees_with_exhaustive_sweep(name):
    frame = lattice(name).congruence_frame()
    rng = Random(len(frame.congruences))
    valid = perturbed = 0
    for _ in range(12):
        mu = random_measure(rng, frame, inf_probability=0.15)
        table = [v for _, v in mu.items()]
        assert is_atom_sum(frame, table) and outcome(check_axioms, frame, table) is None
        valid += 1
        k = rng.randrange(len(table))
        table[k] = rng.choice([F(rng.randint(0, 30), rng.randint(1, 3)), POS_INF, F(0)])
        expected = outcome(check_axioms, frame, table)
        assert is_atom_sum(frame, table) == (expected is None)
        values = dict(zip(frame.congruences, table))
        assert outcome(validate_measure, frame, values) == expected
        perturbed += expected is not None
    assert valid == 12 and perturbed >= 1


def raised(fn, *args):
    """The class and message of what fn raises, or None."""
    try:
        fn(*args)
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)
    return None


def perturbed_tables(rng, frame):
    """Measure tables broken on purpose: the void sublocale nonzero (M1), a
    value below an atom under it or above L (M2), L raised alone (M3, on a
    chain), and values set to +inf or a random rational."""
    subs = frame.congruences
    pos = positions(frame)
    void, top = pos[0], pos[frame.lattice._full]
    for _ in range(6):
        table = [v for _, v in random_measure(rng, frame, rng.choice([0.0, 0.2])).items()]
        yield table
        broken = list(table)
        broken[void] = F(1)
        yield broken
        for _ in range(3):
            k = rng.randrange(len(subs))
            broken = list(table)
            broken[k] = rng.choice([F(0), POS_INF, F(rng.randint(0, 40), rng.randint(1, 3))])
            yield broken
        if table[top] is not POS_INF:
            broken = list(table)
            broken[top] = table[top] + rng.randint(1, 5)
            yield broken


@pytest.mark.parametrize("name", SMALL + ["div360", "chain9"])
def test_in_place_sweep_matches_pair_list_sweep(name):
    frame = lattice(name).congruence_frame()
    rng = Random(name)
    seen = set()
    for table in perturbed_tables(rng, frame):
        expected = raised(check_axioms_by_pairs, frame, table)
        assert raised(check_axioms, frame, table) == expected
        assert raised(validate_measure, frame, dict(zip(frame.congruences, table))) == expected
        seen.add(None if expected is None else expected[1][:4])
    if name in ("div360", "chain9"):
        assert {None, "(M1)", "(M2)", "(M3)"} <= seen


def test_naming_a_failure_allocates_no_pair_list():
    # chain9 has 256 sublocales: a list of its pairs takes megabytes
    frame = lattice("chain9").congruence_frame()
    table = [v for _, v in random_measure(Random(9), frame).items()]
    top = positions(frame)[frame.lattice._full]
    table[top] += 1
    values = dict(zip(frame.congruences, table))
    tracemalloc.start()
    try:
        with pytest.raises(AxiomViolation, match=r"^\(M3\) fails"):
            validate_measure(frame, values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 500_000


def peak_bytes(build) -> int:
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_building_a_lattice_allocates_no_pair_list_or_tables():
    # a closed pair list of the 64-chain has 2080 pairs, and n x n tables 4096 cells
    chain = [f"c{i}" for i in range(64)]
    assert peak_bytes(lambda: FiniteLattice(chain, list(zip(chain, chain[1:])))) < 32 * 1024
    b64 = powerset_lattice("abcdef")
    closed = [(a, b) for a in b64.elements for b in b64.elements if b64.leq(a, b)]
    assert peak_bytes(lambda: FiniteLattice(b64.elements, closed)) < 32 * 1024


# -- measures summed over keep-masks versus the per-sublocale formulas ---------------


def table_of(mu):
    table = [v for _, v in mu.items()]
    check_axioms(mu.frame, table)
    return table


@pytest.mark.parametrize("name", sorted(corpus_lattices()) + SMALL + ["b32", "div360"])
def test_random_measure_matches_per_sublocale_formula(name):
    lat = corpus_lattices()[name] if name in corpus_lattices() else lattice(name)
    frame = lat.congruence_frame()
    for seed in range(6):
        new_rng, old_rng = Random(seed), Random(seed)
        inf_probability = 0.25 if seed % 2 else 0.0
        assert (table_of(random_measure(new_rng, frame, inf_probability))
                == random_table(old_rng, frame, inf_probability))
        assert new_rng.random() == old_rng.random()  # the same draws were made


@pytest.mark.parametrize("name", ["b4", "b8", "b16", "b32"])
def test_weights_measure_matches_per_sublocale_formula(name):
    lat = corpus_lattices().get(name) or lattice(name)
    frame = lat.congruence_frame()
    rng = Random(name)
    for _ in range(6):
        weights = {a: random_weight(rng, 0.25) for a in lat.atoms()}
        assert table_of(measure_from_weights(frame, weights)) == weights_table(frame, weights)


def random_space(rng, n):
    """The powerset of n points, or every other time the algebra generated
    by a random partition of the points, with weights that may be +inf."""
    points = [f"p{i}" for i in range(n)]
    if n < 2 or rng.random() < 0.5:
        return FiniteMeasurableSpace.powerset(
            points, {p: random_weight(rng, 0.2) for p in points})
    blocks = {}
    for p in points:
        blocks.setdefault(rng.randrange(n), set()).add(p)
    atoms = [frozenset(b) for b in blocks.values()]
    algebra = {frozenset().union(*(a for k, a in enumerate(atoms) if m >> k & 1))
               for m in range(1 << len(atoms))}
    return FiniteMeasurableSpace(
        points, algebra, {subset_name(a, points): random_weight(rng, 0.2) for a in atoms})


@pytest.mark.parametrize("n", range(1, 6))
def test_extend_measure_matches_per_sublocale_formula(n):
    rng = Random(n)
    for _ in range(8):
        space = random_space(rng, n)
        frame = space.frame()
        table = table_of(extend_measure(space))
        assert table == space_table(space)
        # the same space read as atom weights on its Boolean lattice
        weights = {space.name_of(a): space.lam[a] for a in space.atoms()}
        assert table == weights_table(frame, weights)
        assert table_of(measure_from_weights(frame, weights)) == table


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
            FiniteLattice(elements, pairs)
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


# -- partitions entering through from_blocks versus the closure ---------------------


def all_partitions(n):
    """Every partition of range(n) as block labels (restricted growth strings)."""
    if n == 0:
        yield ()
        return
    for labels in all_partitions(n - 1):
        for b in range(max(labels, default=-1) + 2):
            yield labels + (b,)


def from_blocks_outcome(lat, labels):
    """from_blocks on the partition with these labels: its block_of, or
    the error message."""
    try:
        return congruence_of(lat, labels).block_of
    except MalformedDocument as exc:
        return str(exc)


def closure_outcome(lat, labels):
    """The partition itself if the closure of its own pairs leaves it
    unchanged, else the message from_blocks must raise."""
    first = {}
    merges = [(first.setdefault(b, i), i) for i, b in enumerate(labels)]
    if canonical(closure(lat, merges)) == canonical(labels):
        return canonical(labels)
    blocks = {}
    for e, b in zip(lat.elements, labels):
        blocks.setdefault(b, []).append(e)
    name = "{" + "|".join(",".join(b) for b in blocks.values()) + "}"
    return f"{name} is not a congruence of this lattice"


PARTITIONED = {
    "c3": lambda: chain_lattice(["0", "m", "1"]),
    "b4": lambda: powerset_lattice(["x", "y"]),
    "b8": lambda: powerset_lattice(["x", "y", "z"]),
    "div12": lambda: divisor_lattice(12),
    "chain4": lambda: chain_lattice(["0", "a", "b", "1"]),
    "chain5": lambda: chain_lattice(["0", "a", "b", "c", "1"]),
}


@pytest.mark.parametrize("name", sorted(PARTITIONED))
def test_from_blocks_accepts_exactly_the_closed_partitions(name):
    lat = PARTITIONED[name]()
    accepted = 0
    for labels in all_partitions(lat.size):
        outcome = from_blocks_outcome(lat, labels)
        assert outcome == closure_outcome(lat, labels), labels
        accepted += isinstance(outcome, tuple)
    assert accepted == lat.congruence_frame().size


@pytest.mark.parametrize("seed", range(10))
def test_from_blocks_on_random_partitions_of_downset_lattices(seed):
    rng = Random(seed)
    lat = downset_lattice(rng, rng.randint(2, 6))
    n = lat.size
    for _ in range(40):
        k = rng.randint(1, n)
        labels = tuple(rng.randrange(k) for _ in range(n))
        assert from_blocks_outcome(lat, labels) == closure_outcome(lat, labels)
        # the congruence generated by a few random pairs is accepted as it is
        merges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2))]
        generated = canonical(closure(lat, merges))
        assert from_blocks_outcome(lat, generated) == generated
