"""The lattice constructor against the reference that closed an order into
a list of name pairs and parsed it back (``tests/_oracle.py``).

Seeded random orders of 0-9 elements go through ``FiniteLattice``, as
generated and as their closed relation, whole or with one pair removed,
and each must give the reference's elements, J-masks and J(L), or raise
the reference's exception class with its message.  The orders cover
cycles, unknown names, duplicate and empty element lists, orders with and
without a bottom and a top, and distributive and non-distributive
lattices."""

from random import Random

import pytest

from _oracle import downset_order, reference_lattice_from_order
from locint.errors import LocintError
from locint.lattice import FiniteLattice

CASES_PER_SEED = 4000


def outcome(build, elements, pairs):
    """(elements, J-masks, J(L)) of the built lattice, or the exception's
    class and message."""
    try:
        lattice = build(elements, pairs)
    except LocintError as exc:
        return type(exc), str(exc)
    if isinstance(lattice, FiniteLattice):
        return lattice.elements, lattice._jmask, lattice._jirr
    return lattice


def closed(elements, pairs) -> list:
    """Every pair (a, b) with a <= b in the reflexive-transitive closure."""
    below = {e: {e} for e in elements}
    for a, b in pairs:
        below[b].add(a)
    changed = True
    while changed:
        changed = False
        for b in elements:
            grown = set().union(*(below[a] for a in below[b]))
            if grown != below[b]:
                below[b], changed = grown, True
    return [(a, b) for b in elements for a in elements if a in below[b]]


def random_order(rng) -> tuple:
    """(elements, generating pairs) of a random order, possibly faulty."""
    if rng.random() < 0.25:
        elements, pairs = downset_order(rng, rng.randint(0, 3))
        pairs = [p for p in pairs if rng.random() < 0.7 or p[0] == p[1]]
    else:
        n = rng.randint(0, 7)
        elements = [f"e{i}" for i in range(n)]
        p = rng.choice((0.2, 0.4, 0.7))
        pairs = [(elements[i], elements[j]) for j in range(n) for i in range(j)
                 if rng.random() < p]
        if rng.random() < 0.5:
            pairs += [("bot", e) for e in elements]
            elements.append("bot")
        if rng.random() < 0.5:
            pairs += [(e, "top") for e in elements]
            elements.append("top")
        rng.shuffle(elements)
    if elements and rng.random() < 0.1:
        i, j = rng.randrange(len(elements)), rng.randrange(len(elements))
        pairs.append((elements[max(i, j)], elements[min(i, j)]))  # a back edge
    rng.shuffle(pairs)
    if rng.random() < 0.08:
        pairs.insert(rng.randint(0, len(pairs)), rng.choice(
            [("zz", rng.choice(elements or ["zz"])), (rng.choice(elements or ["zz"]), "zz")]))
    if rng.random() < 0.05:
        elements = elements + [rng.choice(elements)] if elements else []
    return list(elements), pairs


def closed_input(rng, elements, pairs) -> list:
    """The closed relation, whole or with one pair removed (the order it
    generates may then be smaller); faulty element lists or pairs as
    given."""
    if len(set(elements)) != len(elements) or any(
            a not in elements or b not in elements for a, b in pairs):
        return pairs
    pairs = closed(elements, pairs)
    if pairs and rng.random() < 0.5:
        del pairs[rng.randrange(len(pairs))]
    return pairs


FAULTS = ("unknown element", "at least one element", "duplicate element names",
          "antisymmetric", "no meet", "no join", "triple")


def kind(result) -> str:
    """"lattice", or the fault in FAULTS that the message names."""
    if not isinstance(result[0], type):
        return "lattice"
    return next(f for f in FAULTS if f in result[1])


@pytest.mark.parametrize("seed", range(3))
def test_builders_agree_with_the_pair_list_reference(seed):
    rng = Random(seed)
    seen = set()
    for _ in range(CASES_PER_SEED):
        elements, pairs = random_order(rng)
        for given in (pairs, closed_input(rng, elements, pairs)):
            expected = outcome(reference_lattice_from_order, elements, given)
            assert outcome(FiniteLattice, elements, given) == expected, (elements, given)
            seen.add(kind(expected))
    assert seen == {*FAULTS, "lattice"}
