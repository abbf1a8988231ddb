"""Brute-force oracles: pointwise arithmetic over powerset carriers,
congruences by union-find closure, the refinement order and meet of
partitions, and measure tables built sublocale by sublocale.

Everything here is computed independently of the library's ladder,
canonical-form and keep-mask algebra (plain set/dict comprehensions on the
points of a finite set; closure of relations under meets and joins), so
tests can freeze expected values produced by an unrelated code path."""

from fractions import Fraction

from locint.congruence import Congruence, nabla
from locint.corpus import random_weight
from locint.cutfunction import CutFunction
from locint.lattice import FiniteLattice, subset_name
from locint.rationals import ext_add
from locint.simple import SimpleFunction


def cut_from_pointwise(lat: FiniteLattice, atoms, values) -> CutFunction:
    """The cut ladders of the function with the given point values:
    f(p,-) = {x : values[x] > p} and f(-,q) = {x : values[x] < q}."""
    bp = sorted(set(values.values()))
    reps_u = [bp[0] - 1] + bp
    reps_l = bp + [bp[-1] + 1]
    upper = [subset_name({x for x in atoms if values[x] > p}, atoms) for p in reps_u]
    lower = [subset_name({x for x in atoms if values[x] < q}, atoms) for q in reps_l]
    return CutFunction(lat, bp, upper, lower)


def simple_from_pointwise(lat: FiniteLattice, atoms, values) -> SimpleFunction:
    """Canonical terms straight from the level sets."""
    terms = []
    for v in sorted(set(values.values())):
        terms.append((v, subset_name({x for x in atoms if values[x] == v}, atoms)))
    return SimpleFunction(lat, terms)


def pointwise_of_simple(g: SimpleFunction, atoms) -> dict:
    out = {}
    for r, a in g.terms:
        for x in atoms:
            if g.carrier.leq(x, a):
                out[x] = r
    return out


def padd(u, v):
    return {x: u[x] + v[x] for x in u}


def pmul(u, v):
    return {x: u[x] * v[x] for x in u}


def pscale(lam, u):
    return {x: lam * v for x, v in u.items()}


def pjoin(u, v):
    return {x: max(u[x], v[x]) for x in u}


def pmeet(u, v):
    return {x: min(u[x], v[x]) for x in u}


# -- congruences by union-find closure --------------------------------------------
#
# C(L) by closure: every congruence is the join of the principal
# congruences it contains, and the smallest congruence containing a set of
# pairs is their union-find closure under z |-> (x/\z, y/\z) and
# (x\/z, y\/z).  It knows nothing of J(L), which makes it the brute-force
# oracle for the Birkhoff keep-mask construction.  Its partitions enter the
# library through Congruence.from_blocks, which accepts a partition only if
# it is the congruence read off its keep-mask.


def canonical(labels) -> tuple:
    """Block labels renumbered in order of first occurrence."""
    relabel = {}
    return tuple(relabel.setdefault(b, len(relabel)) for b in labels)


def congruence_of(lattice: FiniteLattice, labels) -> Congruence:
    """The congruence with the given block labels, one per element."""
    blocks = {}
    for e, b in zip(lattice.elements, labels):
        blocks.setdefault(b, []).append(e)
    return Congruence.from_blocks(lattice, blocks.values())


def refines(c: Congruence, d: Congruence) -> bool:
    """c <= d in C(L): every c-block sits inside a d-block."""
    seen = {}
    return all(seen.setdefault(mine, theirs) == theirs
               for mine, theirs in zip(c.block_of, d.block_of))


def refinement_meet(c: Congruence, d: Congruence) -> tuple:
    """Block labels of the intersection of the two relations: the common
    refinement of the partitions."""
    return canonical(zip(c.block_of, d.block_of))


def closure(lattice: FiniteLattice, merges) -> tuple:
    """Block labels of the smallest congruence containing the index pairs."""
    n = lattice.size
    meet = lattice._meet
    join = lattice._join
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue = list(merges)
    while queue:
        x, y = queue.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[rx] = ry
        for z in range(n):
            a, b = meet[x][z], meet[y][z]
            if find(a) != find(b):
                queue.append((a, b))
            a, b = join[x][z], join[y][z]
            if find(a) != find(b):
                queue.append((a, b))
    return tuple(find(i) for i in range(n))


def closure_join(c: Congruence, d: Congruence) -> Congruence:
    """Congruence generated by the union of the two relations."""
    merges = []
    for cong in (c, d):
        first = {}
        for i, b in enumerate(cong.block_of):
            if b in first:
                merges.append((first[b], i))
            else:
                first[b] = i
    return congruence_of(c.lattice, closure(c.lattice, merges))


def closure_congruences(lattice: FiniteLattice) -> list:
    """All congruences as the join-closure of the principal ones, sorted in
    frame order (most blocks first, then by canonical block labels)."""
    found = {}
    eq = Congruence.equality(lattice)
    found[eq.block_of] = eq
    stack = [eq]
    n = lattice.size
    for i in range(n):
        for j in range(i + 1, n):
            c = congruence_of(lattice, closure(lattice, [(i, j)]))
            if c.block_of not in found:
                found[c.block_of] = c
                stack.append(c)
    while stack:
        c = stack.pop()
        for d in list(found.values()):
            j = closure_join(c, d)
            if j.block_of not in found:
                found[j.block_of] = j
                stack.append(j)
    return sorted(found.values(), key=lambda c: (-c.n_blocks, c.block_of))


def first_distributivity_failure(elements, meet, join):
    r"""The first triple (a, b, c) in index order with
    a /\ (b \/ c) != (a /\ b) \/ (a /\ c), or None."""
    n = len(elements)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if meet(a, join(b, c)) != join(meet(a, b), meet(a, c)):
                    return tuple(elements[i] for i in (a, b, c))
    return None


# -- random finite distributive lattices ------------------------------------------


def downset_lattice(rng, points: int) -> FiniteLattice:
    """The lattice of downsets of a random poset on `points` points; by
    Birkhoff every finite distributive lattice arises this way, with J(L)
    isomorphic to the poset."""
    below = [1 << i for i in range(points)]  # below[i]: bitmask of the points <= i
    for j in range(points):
        for i in range(j):
            if rng.random() < 0.35:
                below[j] |= below[i]
    downsets = [m for m in range(1 << points)
                if all(below[i] & ~m == 0 for i in range(points) if m >> i & 1)]
    # "d" followed by the member points, e.g. "d013"; no commas, so refs parse
    label = {m: "d" + "".join(str(i) for i in range(points) if m >> i & 1) for m in downsets}
    pairs = [(label[s], label[t]) for s in downsets for t in downsets if s & ~t == 0]
    return FiniteLattice([label[m] for m in downsets], pairs)


# -- measure tables sublocale by sublocale -----------------------------------------
#
# The per-sublocale formulas that built measures before they were summed over
# keep-masks: each walks the sublocales in frame order and reads the partition
# (block of 0, nabla, complements, the refinement order), never a keep-mask.


def weights_table(view, weights) -> list:
    """Atom weights on a Boolean L: every congruence is nabla(b) for a unique
    b, its sublocale is the open sublocale o(b^c), so its measure is the
    weight sum over the atoms below b^c."""
    lat = view.frame.lattice
    atoms = lat.atoms()
    table = []
    for theta in view.sublocales:
        b = lat.join_all(theta.block_containing(lat.bottom))
        assert theta == nabla(lat, b), "the carrier is not Boolean"
        bc = lat.complement(b)
        total = Fraction(0)
        for a in atoms:
            if lat.leq(a, bc):
                total = ext_add(total, weights[a])
        table.append(total)
    return table


def space_table(space) -> list:
    """The measure on S(A) from lambda: the quotient by nabla(B) is the open
    sublocale of X minus B, so it gets lambda(X minus B)."""
    lat = space.lattice()
    table = []
    for theta in lat.congruence_frame().congruences:
        b = space.subset_of_name(lat.join_all(theta.block_containing(lat.bottom)))
        table.append(space.lam[frozenset(space.points) - b])
    return table


def random_table(rng, view, inf_probability: float = 0.0) -> list:
    """Random weights on the atoms of S(L), drawn in their frame order; the
    measure of S is the weight sum over the atoms below S in the sublocale
    order."""
    atoms = view.atoms()
    weights = [random_weight(rng, inf_probability) for _ in atoms]
    table = []
    for s in view.sublocales:
        total = Fraction(0)
        for a, w in zip(atoms, weights):
            if view.leq(a, s):
                total = ext_add(total, w)
        table.append(total)
    return table
