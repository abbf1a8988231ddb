"""Brute-force oracles: pointwise arithmetic over powerset carriers, and
congruences by union-find closure.

Everything here is computed independently of the library's ladder,
canonical-form and keep-mask algebra (plain set/dict comprehensions on the
points of a finite set; closure of relations under meets and joins), so
tests can freeze expected values produced by an unrelated code path."""

from locint.congruence import Congruence
from locint.cutfunction import CutFunction
from locint.lattice import FiniteLattice, subset_name
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
# oracle for the Birkhoff keep-mask construction.


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
    return Congruence(c.lattice, closure(c.lattice, merges))


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
            c = Congruence(lattice, closure(lattice, [(i, j)]))
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
