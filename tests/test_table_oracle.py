"""The J-mask lattice against the table lattice it replaced.

Every lattice here is also built as an ``_oracle.TableLattice`` from an
order given independently of join-irreducibles: positions on a chain,
subset inclusion, divisibility, the order ``leq`` reads off a seeded
down-set lattice, and refinement of congruence partitions.  For every
element and pair the two must agree on meet, join, order, complements,
atoms and bounds, on the Boolean atoms, on the quotients by every
congruence, read off its keep-mask, and on the numbering of J(L) in
element order, which powersets and C(L) carriers (chains of 2-9
elements, divisor lattices of 30-360, B32 and B64) keep.  Seeded down-set
lattices built from their masks equal those built from the orders of
their brute-force down-sets."""

from functools import cache, reduce
from random import Random

import pytest

from _oracle import (
    CORPUS,
    DOWNSETS,
    LADDER,
    TableLattice,
    entry,
    leq_order,
    named,
    points_with_lower_covers,
    refines,
    table_boolean_atoms,
    table_quotient,
)
from locint.corpus import boolean_atoms, downset_lattice
from locint.errors import NotComplemented, SizeLimitExceeded
from locint.lattice import FiniteLattice, chain_lattice, powerset_lattice, subset_name


def chain_order(names):
    return list(names), [(a, b) for i, a in enumerate(names) for b in names[i:]]


def powerset_order(atoms):
    subsets = [frozenset(a for i, a in enumerate(atoms) if m >> i & 1)
               for m in range(1 << len(atoms))]
    names = [subset_name(s, atoms) for s in subsets]
    return names, [(names[i], names[j]) for i, s in enumerate(subsets)
                   for j, t in enumerate(subsets) if s <= t]


def divisor_order(n):
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    return [str(d) for d in divisors], [(str(a), str(b)) for a in divisors
                                        for b in divisors if b % a == 0]


CORPUS_ORDERS = {
    "c3": chain_order(["0", "m", "1"]),
    "b4": powerset_order("xy"),
    "b8": powerset_order("xyz"),
    "b16": powerset_order("wxyz"),
    "div12": divisor_order(12),
    "div60": divisor_order(60),
}

# J(L) is the poset a < b beside c, listed with c first: the atoms of C(L)
# come in the order collapse a, collapse b, collapse c (most blocks first),
# so the carrier's bits are renumbered against L's J-order.
SKEW_SETS = {"0": "", "c": "c", "a": "a", "ac": "ac", "ab": "ab", "abc": "abc"}
SKEW = (list(SKEW_SETS), [(s, t) for s, x in SKEW_SETS.items()
                          for t, y in SKEW_SETS.items() if set(x) <= set(y)])


def carrier_order(frame):
    """The partition names of C(L) in frame order, ordered by refinement."""
    congruences = frame.congruences
    names = [c.partition_name() for c in congruences]
    return names, [(names[i], names[j]) for i, c in enumerate(congruences)
                   for j, d in enumerate(congruences) if refines(c, d)]


def rings():
    """Rings of sets over 12 points, renumbered 8 points at a time: a chain
    listed out of order whose steps add one or two points, and B8 with four
    points in each atom."""
    rng = Random(12)
    spread, shuffled = rng.sample(range(12), 12), rng.sample(range(9), 9)
    chain = [f"e{i}" for i in range(9)]
    yield "ring_chain9", (
        FiniteLattice._from_masks([chain[i] for i in shuffled],
                                  [sum(1 << p for p in spread[:i * 3 // 2]) for i in shuffled]),
        ([chain[i] for i in shuffled], chain_order(chain)[1]))
    blocks = [sum(1 << p for p in spread[i::3]) for i in range(3)]
    yield "ring_b8", (FiniteLattice._from_masks(powerset_order("xyz")[0], [
        sum(b for i, b in enumerate(blocks) if m >> i & 1) for m in range(8)]), powerset_order("xyz"))


OWN = {"skew6": (FiniteLattice(*SKEW), SKEW), **dict(rings()),
       "b1": (powerset_lattice(""), powerset_order("")),
       "b2": (powerset_lattice("x"), powerset_order("x"))}
ORDERS = {**CORPUS_ORDERS, "b32": powerset_order("vwxyz"), "b64": powerset_order("uvwxyz")}
LOWER = CORPUS + DOWNSETS + ("b32", "b64") + tuple(OWN)
CARRIER_NAMES = tuple(f"C({name})" for name in LADDER + ("skew6",))


def frame_of(name):
    return OWN[name][0].congruence_frame() if name in OWN else entry(name).frame


@cache
def case(name):
    """(the lattice, its order): given apart from join-irreducibles, read
    off ``leq`` for the down-set lattices, by refinement for a carrier."""
    if name in OWN:
        return OWN[name]
    if name.startswith("C("):
        frame = frame_of(name[2:-1])
        return frame.as_lattice(), carrier_order(frame)
    return named(name), ORDERS.get(name) or leq_order(named(name))


def complement_or_error(lat, a):
    try:
        return lat.complement(a)
    except NotComplemented as exc:
        return str(exc)


@pytest.mark.parametrize("name", LOWER + CARRIER_NAMES)
def test_masks_agree_with_tables(name):
    lat, (elements, pairs) = case(name)
    table = TableLattice(elements, pairs)
    assert lat.elements == table.elements
    assert (lat.bottom, lat.top) == (table.bottom, table.top)
    els = lat.elements
    for a in els:
        assert complement_or_error(lat, a) == complement_or_error(table, a)
        for b in els:
            assert (lat.meet(a, b), lat.join(a, b), lat.leq(a, b)) == \
                (table.meet(a, b), table.join(a, b), table.leq(a, b)), (a, b)
    assert lat.atoms() == table.atoms()
    assert lat.complemented_elements() == table.complemented_elements()
    assert lat.is_boolean() == table.is_boolean()
    assert boolean_atoms(lat) == table_boolean_atoms(table)
    # bit k stands for the k-th join-irreducible in element order: an x
    # that is not the join of the elements strictly below it
    below = [[y for y in els if y != x and table.leq(y, x)] for x in els]
    jirr = tuple(i for i, b in enumerate(below) if b and reduce(table.join, b) != els[i])
    assert lat._jirr == jirr
    assert lat._jmask == tuple(sum(1 << k for k, j in enumerate(jirr) if table.leq(els[j], x))
                               for x in els)
    if name in CARRIER_NAMES:  # point bit k: the j of L that the k-th atom of C(L) collapses
        frame = frame_of(name[2:-1])
        lower = frame.lattice
        assert frame.point_bits() == tuple(
            lower._jirr.index(lower.index(j)) for block in
            (frame.congruences[i].block_of for i in jirr)
            for j, cover in points_with_lower_covers(lower)
            if block[lower.index(j)] == block[lower.index(cover)])


@pytest.mark.parametrize("name", LOWER)
def test_quotients_agree_with_tables(name):
    """Block i of a congruence lies below block j in the quotient iff the
    join-irreducibles its keep-mask keeps below i are among those below j."""
    lat, (elements, pairs) = case(name)
    table = TableLattice(elements, pairs)
    for theta in frame_of(name).congruences:
        names, order = table_quotient(table, theta.block_of)
        kept = [lat.jmask(block[0]) & theta.keep for block in theta.blocks()]
        assert len(names) == theta.n_blocks
        assert {(names[i], names[j]) for i, qi in enumerate(kept)
                for j, qj in enumerate(kept) if not qi & ~qj} == set(order)


@pytest.mark.parametrize("name", [n for n in LOWER + CARRIER_NAMES  # up to 64 elements
                                  if n not in ("C(chain8)", "C(chain9)")])
def test_lattices_equal_and_hash_like_order_built_ones(name):
    """Powersets, C(L) carriers, down-set lattices and the rings come from
    masks, the rest from an order; each equals the lattice the constructor
    builds from its order."""
    lat, order = case(name)
    built = FiniteLattice(*order)
    assert lat == built and built == lat
    assert hash(lat) == hash(built)


def brute_force_order(rng, points):
    """(elements, order pairs) of the down-sets of the poset that
    ``downset_lattice`` draws from the same generator state, found by
    filtering all 2^points masks."""
    below = [1 << i for i in range(points)]
    for j in range(points):
        for i in range(j):
            if rng.random() < 0.35:
                below[j] |= below[i]
    found = [m for m in range(1 << points)
             if all(below[i] & ~m == 0 for i in range(points) if m >> i & 1)]
    label = {m: "d" + "".join(str(i) for i in range(points) if m >> i & 1) for m in found}
    return [label[m] for m in found], [(label[s], label[t]) for s in found
                                        for t in found if s & ~t == 0]


@pytest.mark.parametrize("points", range(9))
def test_downset_lattices_equal_order_built_ones(points):
    """The down-set lattices built from their masks equal, hash like and
    number J(L) like the lattices the constructor builds from the
    brute-force down-sets of the same poset; above the cap both raise."""
    for seed in range(300):
        try:
            built = FiniteLattice(*brute_force_order(Random(seed), points))
        except SizeLimitExceeded:
            with pytest.raises(SizeLimitExceeded, match="the 64-element limit$"):
                downset_lattice(Random(seed), points)
            continue
        lat = downset_lattice(Random(seed), points)
        assert lat == built and hash(lat) == hash(built) and lat._jirr == built._jirr


@pytest.mark.parametrize("points", range(11, 17))
def test_downset_names_stay_distinct_past_ten_points(points):
    """Every draw builds with distinct element names or exceeds the cap.
    Seeds 382 (13-16 points) and 2901 (13 points) drew lattices of 44-60
    elements whose names collided while a name spelled its members in
    decimal: {0, 1, 2} and {0, 12} were both "d012"."""
    built = set()
    for seed in [*range(300), 382, 2901]:
        try:
            lat = downset_lattice(Random(seed), points)
        except SizeLimitExceeded:
            continue
        assert len(set(lat.elements)) == lat.size
        built.add(seed)
    assert points < 13 or 382 in built
    assert points != 13 or 2901 in built


def test_order_built_lattices_are_capped_at_64_elements():
    names = [f"e{i}" for i in range(65)]
    message = "^65 elements exceeds the 64-element limit$"
    with pytest.raises(SizeLimitExceeded, match=message):
        chain_lattice(names)
    with pytest.raises(SizeLimitExceeded, match=message):
        FiniteLattice(*chain_order(names))
    assert chain_lattice(names[:64]).size == 64
