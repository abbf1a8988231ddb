"""The atom-based checks of classical spaces against the pairwise sweeps.

``FiniteMeasurableSpace`` checks its algebra as the unions of the atoms
found from the points, then takes one weight per atom, keyed by the atom's
name, and sums them; the reference, ``_oracle.SweepSpace``, checks closure
and additivity pair by pair on the summed table.  Every family of subsets
of 3 points and every Boolean algebra on 4 and 5 points (one per partition
of the points) is built with six seeded atom-weight tables, and both sides
must agree on the outcome (exception class and message included), the
algebra, lambda, the atoms, and the lattice (equal, with the same hash, or
the same exception).  A weight table the sweeps cannot read (an atom
missing, a key that names no atom) must fail as the constructor's contract
says, after the algebra check."""

from fractions import Fraction as F
from random import Random

import pytest

from _oracle import SweepSpace, sweep_check_algebra
from locint.bridge import FiniteMeasurableSpace
from locint.corpus import random_weight
from locint.errors import MalformedDocument
from locint.lattice import subset_name
from locint.rationals import ext_add


def outcome(build):
    try:
        return "ok", build()
    except Exception as exc:  # the class and message are compared
        return type(exc), str(exc)


def all_families(points):
    subsets = [frozenset(p for i, p in enumerate(points) if m >> i & 1)
               for m in range(1 << len(points))]
    for family in range(1 << len(subsets)):
        yield [s for k, s in enumerate(subsets) if family >> k & 1]


def partitions(points):
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for blocks in partitions(rest):
        yield [[first]] + blocks
        for k in range(len(blocks)):
            yield blocks[:k] + [[first] + blocks[k]] + blocks[k + 1:]


def generated_algebra(blocks):
    return [frozenset().union(*(frozenset(b) for k, b in enumerate(blocks) if m >> k & 1))
            for m in range(1 << len(blocks))]


def minimal_members(family):
    """The atoms of a Boolean algebra: its minimal nonempty members, in
    sorted order."""
    nonempty = [s for s in family if s]
    return sorted((s for s in nonempty if not any(t < s for t in nonempty)), key=sorted)


def weight_tables(rng, points, family):
    """Atom weights keyed by atom name: complete, one atom missing, a key
    naming a member that is not an atom, a key naming no member, one value
    negative, and complete with weights that may be +inf."""
    atoms = minimal_members(family)

    def complete(inf_probability):
        return {subset_name(a, points): random_weight(rng, inf_probability) for a in atoms}

    tables = {"complete": complete(0.0)}
    if atoms:
        missing = complete(0.0)
        del missing[subset_name(rng.choice(atoms), points)]
        tables["missing"] = missing
        negative = complete(0.0)
        negative[subset_name(rng.choice(atoms), points)] = F(-1, 2)
        tables["negative"] = negative
    others = [s for s in family if s not in atoms]
    if others:
        non_atom = complete(0.0)
        non_atom[subset_name(rng.choice(others), points)] = F(1)
        tables["non-atom"] = non_atom
    no_member = complete(0.0)
    no_member["zzz"] = F(1)
    tables["no member"] = no_member
    tables["inf"] = complete(0.5)
    return tables


def reference(points, family, weights):
    """SweepSpace on the table summed from the weights, once its algebra
    check has passed, no two members share a name (the first name met
    twice in algebra order is named) and the weights name exactly the
    atoms."""
    try:
        sweep_check_algebra(tuple(points), {frozenset(s) for s in family})
    except Exception as exc:
        return type(exc), str(exc)
    order = {p: i for i, p in enumerate(points)}
    members = sorted(set(family), key=lambda s: (len(s), sorted(order[p] for p in s)))
    member_names = [subset_name(s, points) for s in members]
    shared = [n for i, n in enumerate(member_names) if n in member_names[:i]]
    if shared:
        return MalformedDocument, f"two members of the algebra are both named {shared[0]!r}"
    atoms = minimal_members(set(family))
    names = [subset_name(a, points) for a in atoms]
    for name in names:
        if name not in weights:
            return MalformedDocument, f"no weight for atom {name!r}"
    extra = [k for k in weights if k not in names]
    if extra:
        return MalformedDocument, f"weights given for non-atoms {extra!r}"
    lam = {}
    for s in family:
        total = F(0)
        for a, name in zip(atoms, names):
            if a <= s:
                total = ext_add(total, weights[name])
        lam[s] = total
    return outcome(lambda: SweepSpace(points, family, lam))


def assert_same(points, family, weights):
    got = outcome(lambda: FiniteMeasurableSpace(points, family, weights))
    want = reference(points, family, weights)
    if got[0] != "ok" or want[0] != "ok":
        assert got == want, (points, family)
        return got[0]
    space, ref = got[1], want[1]
    assert space.algebra == ref.algebra
    assert dict(space.lam) == ref.lam
    assert space.atoms() == ref.atoms
    lattice, ref_lattice = outcome(space.lattice), outcome(ref.lattice)
    if lattice[0] != "ok" or ref_lattice[0] != "ok":
        assert lattice == ref_lattice
    else:
        assert lattice[1] == ref_lattice[1] and hash(lattice[1]) == hash(ref_lattice[1])
    return "ok"


@pytest.mark.parametrize("points", [("z", "x", "y"), ("1", "0", "y")])
def test_every_family_of_three_points(points):
    # ("1", "0", "y"): the singletons {0} and {1} are named like the empty
    # and the whole set, so only 2 of the 5 Boolean algebras are spaces
    rng = Random("".join(points))
    seen = {}
    for family in all_families(points):
        for kind, weights in weight_tables(rng, points, family).items():
            result = assert_same(points, family, weights)
            seen[kind, result] = seen.get((kind, result), 0) + 1
    # every table kind met both valid algebras and failures
    boolean = {("z", "x", "y"): 5, ("1", "0", "y"): 2}[points]
    assert seen["complete", "ok"] == seen["inf", "ok"] == boolean
    assert all(kind in {k for k, _ in seen}
               for kind in ("missing", "negative", "non-atom", "no member"))


@pytest.mark.parametrize("n", [4, 5])
def test_every_boolean_algebra_on_four_and_five_points(n):
    points = tuple("edcba"[5 - n:])
    rng = Random(n)
    count = 0
    for blocks in partitions(list(points)):
        family = generated_algebra(blocks)
        rng.shuffle(family)
        for kind, weights in weight_tables(rng, points, family).items():
            result = assert_same(points, family, weights)
            assert (result == "ok") == (kind in ("complete", "inf"))
        count += 1
    assert count == {4: 15, 5: 52}[n]


def test_algebra_check_and_powerset_agree_with_the_sweeps():
    # the algebra is checked before any weight is read, and a powerset
    # space is the constructor on the weights of its singletons
    rng = Random(7)
    points = ("z", "x", "y")
    for family in all_families(points):
        ref = outcome(lambda: sweep_check_algebra(points, set(family)))
        if ref[0] != "ok":
            assert outcome(lambda: FiniteMeasurableSpace(points, family, {})) == ref
    for n in range(6):
        pts = [f"p{i}" for i in range(n)]
        weights = {p: random_weight(rng, 0.3) for p in pts}
        space = FiniteMeasurableSpace.powerset(pts, weights)
        lam = {}
        for s in space.algebra:
            total = F(0)
            for p in s:
                total = ext_add(total, weights[p])
            lam[s] = total
        ref = SweepSpace(pts, space.algebra, lam)
        assert space.algebra == ref.algebra and dict(space.lam) == ref.lam
        assert space.atoms() == ref.atoms
        assert space.lattice() == ref.lattice() and hash(space.lattice()) == hash(ref.lattice())


def test_many_atoms_from_few_members():
    # X and X minus each point: 22 members whose meets are the 20 singletons;
    # the member count (22, not 2^20) rejects the family before any union
    # is enumerated, and the sweep names the first unclosed complement
    points = tuple(f"p{i}" for i in range(20))
    family = [frozenset(), frozenset(points)] + [frozenset(points) - {p} for p in points]
    lam = {s: F(len(s)) for s in family}
    got = outcome(lambda: FiniteMeasurableSpace(points, family, {p: F(1) for p in points}))
    assert got == outcome(lambda: SweepSpace(points, family, lam))
    assert got[1].startswith("the algebra is not closed under complement at ")
