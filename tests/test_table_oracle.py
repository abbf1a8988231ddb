"""The J-mask lattice against the table lattice it replaced.

Every lattice here is also built as an ``_oracle.TableLattice`` from an
order given independently of join-irreducibles: positions on a chain,
subset inclusion, divisibility, inclusion of downsets, and refinement of
congruence partitions.  For every element and pair the two must agree on
meet, join, order, complements, atoms and bounds, and on the Boolean atoms
and the quotients by every congruence, read off its keep-mask."""

from random import Random

import pytest

from _oracle import (
    TableLattice,
    downset_order,
    refines,
    table_boolean_atoms,
    table_quotient,
)
from locint.corpus import boolean_atoms, corpus_lattices
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


def carrier_order(lattice):
    """The partition names of C(L) in frame order, ordered by refinement."""
    congruences = lattice.congruence_frame().congruences
    names = [c.partition_name() for c in congruences]
    return names, [(names[i], names[j]) for i, c in enumerate(congruences)
                   for j, d in enumerate(congruences) if refines(c, d)]


def cases():
    out = {name: (corpus_lattices()[name], order) for name, order in CORPUS_ORDERS.items()}
    rng = Random(9)
    for k in range(8):
        elements, pairs = downset_order(rng, 1 + k % 6)
        out[f"downset{k}"] = (FiniteLattice(elements, pairs), (elements, pairs))
    out["skew6"] = (FiniteLattice(*SKEW), SKEW)
    for name, atoms in (("b1", ""), ("b2", "x"), ("b64", "uvwxyz")):
        out[name] = (powerset_lattice(atoms), powerset_order(atoms))
    for name, lat in (("chain8", chain_lattice([f"e{i}" for i in range(8)])),
                      ("chain9", chain_lattice([f"e{i}" for i in range(9)])),
                      ("b64", powerset_lattice("uvwxyz")),
                      ("skew6", FiniteLattice(*SKEW))):
        out[f"C({name})"] = (lat.congruence_frame().as_lattice(), carrier_order(lat))
    return out


CASES = cases()


def complement_or_error(lat, a):
    try:
        return lat.complement(a)
    except NotComplemented as exc:
        return str(exc)


@pytest.mark.parametrize("name", sorted(CASES))
def test_masks_agree_with_tables(name):
    lat, (elements, pairs) = CASES[name]
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


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if not n.startswith("C(")])
def test_quotients_agree_with_tables(name):
    """Block i of a congruence lies below block j in the quotient iff the
    join-irreducibles its keep-mask keeps below i are among those below j."""
    lat, (elements, pairs) = CASES[name]
    table = TableLattice(elements, pairs)
    for theta in lat.congruence_frame().congruences:
        names, order = table_quotient(table, theta.block_of)
        kept = [lat.jmask(block[0]) & theta.keep for block in theta.blocks()]
        assert len(names) == theta.n_blocks
        assert {(names[i], names[j]) for i, qi in enumerate(kept)
                for j, qj in enumerate(kept) if not qi & ~qj} == set(order)


@pytest.mark.parametrize("name", [n for n in sorted(CASES) if CASES[n][0].size <= 64])
def test_lattices_equal_and_hash_like_order_built_ones(name):
    """Powersets and C(L) carriers come from masks, the rest from an order;
    each equals the lattice the constructor builds from its order."""
    lat, order = CASES[name]
    built = FiniteLattice(*order)
    assert lat == built and built == lat
    assert hash(lat) == hash(built)


def test_order_built_lattices_are_capped_at_64_elements():
    names = [f"e{i}" for i in range(65)]
    message = "^65 elements exceeds the 64-element limit$"
    with pytest.raises(SizeLimitExceeded, match=message):
        chain_lattice(names)
    with pytest.raises(SizeLimitExceeded, match=message):
        FiniteLattice(*chain_order(names))
    assert chain_lattice(names[:64]).size == 64
