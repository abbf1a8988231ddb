"""Brute-force oracles: pointwise arithmetic over powerset carriers,
congruences by union-find closure, the refinement order and meet of
partitions, measure tables built sublocale by sublocale, and the
name-based canonical form and ladder checks that the index-native ones
replaced.

Everything here is computed independently of the library's ladder,
canonical-form and keep-mask algebra (plain set/dict comprehensions on the
points of a finite set; closure of relations under meets and joins), so
tests can freeze expected values produced by an unrelated code path."""

from fractions import Fraction

from locint.congruence import Congruence, nabla
from locint.corpus import random_weight
from locint.cutfunction import CutFunction
from locint.errors import InvalidScale
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


# -- name-based references for the index-native term and ladder code -----------
#
# canonicalize, the refinement products and the CutFunction checks as they
# were written on element names (the lattice's meet/join/complement/leq by
# name), before they moved onto the index tables.  The differential tests
# compare the library with these: the same terms and ladders, or the same
# exception class and message.


def from_cells_by_names(carrier: FiniteLattice, cells) -> SimpleFunction:
    """Merge equal-coefficient cells (name -> coefficient) by join, sort."""
    by_coeff = {}
    for cell, r in cells.items():
        if cell == carrier.bottom:
            continue
        by_coeff[r] = carrier.join(by_coeff[r], cell) if r in by_coeff else cell
    if not by_coeff:
        return SimpleFunction(carrier, ((Fraction(0), carrier.top),))
    return SimpleFunction(carrier, tuple(sorted(by_coeff.items())))


def canonicalize_by_names(carrier: FiniteLattice, terms) -> SimpleFunction:
    """Split the top into the cells of the subalgebra generated by the
    term elements, add each coefficient to the cells below its element,
    and regroup; every term goes through the split."""
    cells = {carrier.top: Fraction(0)}
    for r, a in terms:
        ac = carrier.complement(a)
        r = Fraction(r)
        nxt = {}
        for cell, coeff in cells.items():
            inside = carrier.meet(cell, a)
            outside = carrier.meet(cell, ac)
            if inside != carrier.bottom:
                nxt[inside] = coeff + r
            if outside != carrier.bottom:
                nxt[outside] = coeff
        cells = nxt
    return from_cells_by_names(carrier, cells)


def refinement_by_names(g: SimpleFunction, h: SimpleFunction, op) -> SimpleFunction:
    """op(r_i, s_j) on each nonzero cell a_i /\\ b_j of the common refinement."""
    lat = g.carrier
    cells = {}
    for r, a in g.terms:
        for s, b in h.terms:
            cell = lat.meet(a, b)
            if cell != lat.bottom:
                cells[cell] = op(r, s)
    return from_cells_by_names(lat, cells)


def cut_ladders_by_names(carrier: FiniteLattice, breakpoints, upper, lower) -> tuple:
    """(breakpoints, upper, lower) after the CutFunction checks, in their
    order and with their messages, and its normalisation."""
    bp = tuple(Fraction(b) for b in breakpoints)
    up = tuple(upper)
    lo = tuple(lower)
    if len(up) != len(bp) + 1 or len(lo) != len(bp) + 1:
        raise InvalidScale("each ladder needs exactly one value per interval")
    for i in range(len(bp) - 1):
        if not bp[i] < bp[i + 1]:
            raise InvalidScale(f"breakpoints not strictly increasing at {bp[i]}")
    for v in up + lo:
        carrier.index(v)
    for i in range(len(bp)):
        if not carrier.leq(up[i + 1], up[i]):
            raise InvalidScale(f"upper ladder is not antitone across {bp[i]}")
        if not carrier.leq(lo[i], lo[i + 1]):
            raise InvalidScale(f"lower ladder is not isotone across {bp[i]}")
    for i in range(len(bp) + 1):
        if carrier.meet(up[i], lo[i]) != carrier.bottom:
            raise InvalidScale(
                f"cut relation (p,-) /\\ (-,q) = 0 fails on interval {i}: "
                f"{up[i]!r} /\\ {lo[i]!r} != bottom")
        if carrier.join(up[i], lo[i]) != carrier.top:
            raise InvalidScale(
                f"cut relation (p,-) \\/ (-,q) = 1 fails on interval {i}: "
                f"{up[i]!r} \\/ {lo[i]!r} != top")
    nbp, nup, nlo = [], [up[0]], [lo[0]]
    for i in range(len(bp)):
        if up[i + 1] != nup[-1]:
            nbp.append(bp[i])
            nup.append(up[i + 1])
            nlo.append(lo[i + 1])
    return tuple(nbp), tuple(nup), tuple(nlo)
