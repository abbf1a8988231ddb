"""The atom-based checks of classical spaces against the pairwise sweeps.

``FiniteMeasurableSpace`` checks its algebra as the unions of the atoms
found from the points and lambda as sums over those atoms; the reference,
``_oracle.SweepSpace``, checks closure and additivity pair by pair.  Every
family of subsets of 3 points and every Boolean algebra on 4 and 5 points
(one per partition of the points) is built with five seeded lambda tables,
and both constructors must agree on the outcome (exception class and
message included), the algebra, lambda, the atoms, and the lattice (equal,
with the same hash, or the same exception)."""

from fractions import Fraction as F
from random import Random

import pytest

from _oracle import SweepSpace
from locint.bridge import FiniteMeasurableSpace
from locint.corpus import random_weight
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


def lambda_tables(rng, points, family):
    """Additive (from point weights), one member perturbed, one member
    missing, one value negative, and additive from weights that may be +inf."""
    def additive(inf_probability):
        weights = {p: random_weight(rng, inf_probability) for p in points}
        table = {}
        for s in family:
            total = F(0)
            for p in s:
                total = ext_add(total, weights[p])
            table[s] = total
        return table

    tables = {"additive": additive(0.0)}
    if family:
        member = rng.choice(family)
        perturbed = additive(0.0)
        perturbed[member] = perturbed[member] + 1
        tables["perturbed"] = perturbed
        missing = additive(0.0)
        del missing[rng.choice(family)]
        tables["missing"] = missing
        negative = additive(0.0)
        negative[rng.choice(family)] = F(-1, 2)
        tables["negative"] = negative
    tables["inf"] = additive(0.5)
    return tables


def assert_same(points, family, lam):
    got = outcome(lambda: FiniteMeasurableSpace(points, family, lam))
    want = outcome(lambda: SweepSpace(points, family, lam))
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
    # ("1", "0", "y"): member names collide with "0" and "1", so the lattice
    # of an algebra with singleton {0} fails the same way on both sides
    rng = Random("".join(points))
    seen = {}
    for family in all_families(points):
        for kind, lam in lambda_tables(rng, points, family).items():
            result = assert_same(points, family, lam)
            seen[kind, result] = seen.get((kind, result), 0) + 1
    # every table kind met both valid algebras and failures
    assert seen["additive", "ok"] == 5  # the Boolean algebras on 3 points
    assert seen["inf", "ok"] == 5
    assert all(kind in {k for k, _ in seen} for kind in ("perturbed", "missing", "negative"))


@pytest.mark.parametrize("n", [4, 5])
def test_every_boolean_algebra_on_four_and_five_points(n):
    points = tuple("edcba"[5 - n:])
    rng = Random(n)
    count = 0
    for blocks in partitions(list(points)):
        family = generated_algebra(blocks)
        rng.shuffle(family)
        for kind, lam in lambda_tables(rng, points, family).items():
            result = assert_same(points, family, lam)
            assert (result == "ok") == (kind in ("additive", "inf")) or kind == "perturbed"
        count += 1
    assert count == {4: 15, 5: 52}[n]


def test_from_atom_weights_and_powerset_agree_with_the_sweeps():
    rng = Random(7)
    points = ("z", "x", "y")
    for family in all_families(points):
        ref = outcome(lambda: SweepSpace(points, family, lambda_tables(rng, points, family)
                                         ["additive"]))
        if ref[0] != "ok":
            got = outcome(lambda: FiniteMeasurableSpace.from_atom_weights(points, family, {}))
            assert got == ref
            continue
        weights = {a: random_weight(rng, 0.3) for a in ref[1].atoms}
        space = FiniteMeasurableSpace.from_atom_weights(points, family, weights)
        assert dict(space.lam) == SweepSpace(points, family, space.lam).lam
    for n in range(6):
        pts = [f"p{i}" for i in range(n)]
        space = FiniteMeasurableSpace.powerset(pts, {p: random_weight(rng, 0.3) for p in pts})
        ref = SweepSpace(pts, space.algebra, space.lam)
        assert space.algebra == ref.algebra and space.atoms() == ref.atoms
        assert space.lattice() == ref.lattice() and hash(space.lattice()) == hash(ref.lattice())


def test_many_atoms_from_few_members():
    # X and X minus each point: 22 members whose meets are the 20 singletons;
    # the member count (22, not 2^20) rejects the family before any union
    # is enumerated, and the sweep names the first unclosed complement
    points = tuple(f"p{i}" for i in range(20))
    family = [frozenset(), frozenset(points)] + [frozenset(points) - {p} for p in points]
    lam = {s: F(len(s)) for s in family}
    got = outcome(lambda: FiniteMeasurableSpace(points, family, lam))
    assert got == outcome(lambda: SweepSpace(points, family, lam))
    assert got[1].startswith("the algebra is not closed under complement at ")
