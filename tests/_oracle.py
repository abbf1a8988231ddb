"""The lattice corpus of tier-1, and brute-force oracles: the table-based
lattice, pointwise arithmetic on the atoms of a carrier's Boolean centre,
congruences by union-find closure, the refinement order and meet of
partitions, measure tables built sublocale by sublocale, and the
name-based canonical form and ladder checks that the index-native ones
replaced, and the Fraction ladder kernels that the integer kernels
replaced, and the classical space checked by pairwise sweeps that the
atom-based checks replaced, and the measure sweep over the
pair lists that the in-place sweep replaced, and the frame labels found by
scanning L that the keep-mask lookups replaced, the lattice builder
that closed an order into a list of name pairs and parsed it back, the
integrals summed by term and cell names that the sum over the points of
J(L) replaced, and the transport of functions and measures to classical
ones on J(L), read off partitions.

Every differential test takes its lattices from the corpus, by name, so
which lattices tier-1 checks is decided here alone; the lattices come from
``locint.corpus``.  The oracles are computed independently of the
library's ladder, canonical-form and keep-mask algebra (plain set/dict
comprehensions on the points of a finite set; closure of relations under
meets and joins), so tests can freeze expected values produced by an
unrelated code path."""

from bisect import bisect_right
from fractions import Fraction
from functools import cache, reduce
from random import Random

from locint.bridge import ClassicalSimpleFunction, FiniteMeasurableSpace
from locint.congruence import Congruence
from locint.corpus import (
    CorpusEntry,
    _entry,
    corpus,
    divisor_lattice,
    downset_lattice,
    random_weight,
    seeded_corpus,
)
from locint.cutfunction import CutFunction, constant, join_meet, negate
from locint.errors import (
    AxiomViolation,
    ConsistencyError,
    InvalidArgument,
    InvalidScale,
    MalformedDocument,
    NegativeOperand,
    NotALattice,
    NotComplemented,
    NotDistributive,
    NotFinite,
    NotNonnegative,
    SizeLimitExceeded,
)
from locint.integrate import _keep_of, _term_measure, classify, integrate_simple, report_value
from locint.lattice import (
    SOFT_SIZE_LIMIT,
    FiniteLattice,
    chain_lattice,
    check_same_carrier,
    powerset_lattice,
    subset_name,
)
from locint.measure import Measure, check_measure_value
from locint.rationals import POS_INF, ext_add, ext_le, ext_scale, format_extended
from locint.simple import (
    DECOMPOSITION_LIMIT,
    DecompositionStep,
    SimpleFunction,
    characteristic_simple,
    sf_add,
    sf_neg,
    sf_scale,
    to_cut_function,
    zero,
)


# -- the lattice corpus of tier-1 -----------------------------------------------
#
# Tiers are tuples of names, so tests are parametrized at collection; each
# lattice, its frame C(L) and C(L)'s carrier are built on first use and
# shared by every test of the process, so a library fault fails tests, not
# collection.  "C(<name>)" names the carrier of C(L).  The SMALL tier has at
# most 30 elements and 64 congruences, for the brute-force oracles
# (partition enumeration, union-find closure, triple sweeps); the SEEDED
# and LADDER tiers reach 64 elements and 256 congruences, and a carrier up
# to C(chain9)'s 256 elements.  To add a lattice, add its name to a tier,
# and a builder to _BUILD if its kind is new.

CORPUS = ("c3", "b4", "b8", "b16", "div12", "div60")  # locint.corpus.corpus()
DOWNSETS = tuple(f"downset{k}" for k in range(9))  # seed k, |J| = 1 + k % 6
POSETS = tuple(f"poset{seed}" for seed in range(14))  # seed, |J| drawn from 1 to 6
SMALL = CORPUS + DOWNSETS + POSETS
SEEDED = tuple(f"downset{n}s0" for n in range(4, 9))  # locint.corpus.seeded_corpus(), |J| = n
LADDER = tuple(f"chain{n}" for n in range(2, 10)) + ("div30", "div36", "div72", "div360",
                                                      "b32", "b64")


_BUILD = {
    "downset": lambda k: downset_lattice(Random(k), 1 + k % 6),
    "poset": lambda seed: downset_lattice(rng := Random(seed), rng.randint(1, 6)),
    "chain": lambda n: chain_lattice([f"e{i}" for i in range(n)]),
    "div": divisor_lattice,
    "b": lambda n: powerset_lattice("uvwxyz"[7 - n.bit_length():]),  # b32: v..z, b64: u..z
}


@cache
def entry(name: str) -> CorpusEntry:
    """The corpus lattice `name` with C(L) and C(L)'s carrier."""
    shared = {e.name: e for e in corpus() + seeded_corpus()}
    if name in shared:
        return shared[name]
    kind = name.rstrip("0123456789")
    return _entry(name, _BUILD[kind](int(name[len(kind):])))


def named(name: str) -> FiniteLattice:
    """The corpus lattice `name`, or for "C(<name>)" the carrier of its C(L)."""
    return entry(name[2:-1]).carrier if name.startswith("C(") else entry(name).lattice


def outcome(fn, *args):
    """("ok", value) or ("error", exception class, message)."""
    try:
        return ("ok", fn(*args))
    except Exception as exc:  # the class and message are what is compared
        return ("error", type(exc), str(exc))


# -- the lattice as n x n meet and join tables -------------------------------------
#
# The representation the library used before it kept only J-masks: down-set
# bitmasks, meet and join tables found as the unique greatest lower and least
# upper bounds, and complements found by searching the tables.  It knows
# nothing of join-irreducibles, which makes it the reference for the mask
# algebra.


class TableLattice:
    """A finite lattice given by a reflexively and transitively closed
    order, held as its meet/join tables."""

    def __init__(self, elements, leq_pairs):
        self.elements = tuple(elements)
        self._idx = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        down = [1 << i for i in range(n)]  # down[b]: bitmask of all a <= b
        for a, b in leq_pairs:
            down[self._idx[b]] |= 1 << self._idx[a]
        for a in range(n):
            for b in range(n):
                if down[b] >> a & 1 and (down[a] & ~down[b] or a != b and down[a] >> b & 1):
                    raise NotALattice("not a partial order")
        up = [sum(1 << b for b in range(n) if down[b] >> a & 1) for a in range(n)]
        self._down = tuple(down)
        self._meet = tuple(tuple(_extreme(down[a] & down[b], down) for b in range(n))
                           for a in range(n))
        self._join = tuple(tuple(_extreme(up[a] & up[b], up) for b in range(n))
                           for a in range(n))
        bot = top = 0
        for i in range(n):
            bot, top = self._meet[bot][i], self._join[top][i]
        self._bottom, self._top = bot, top
        self._comp = tuple(next((c for c in range(n) if self._meet[a][c] == bot
                                 and self._join[a][c] == top), None) for a in range(n))

    @property
    def bottom(self):
        return self.elements[self._bottom]

    @property
    def top(self):
        return self.elements[self._top]

    def leq(self, a, b):
        return bool(self._down[self._idx[b]] >> self._idx[a] & 1)

    def meet(self, a, b):
        return self.elements[self._meet[self._idx[a]][self._idx[b]]]

    def join(self, a, b):
        return self.elements[self._join[self._idx[a]][self._idx[b]]]

    def complement(self, a):
        c = self._comp[self._idx[a]]
        if c is None:
            raise NotComplemented(f"{a!r} is not complemented in this lattice")
        return self.elements[c]

    def complemented_elements(self):
        return tuple(e for e, c in zip(self.elements, self._comp) if c is not None)

    def is_boolean(self):
        return all(c is not None for c in self._comp)

    def atoms(self):
        return tuple(e for i, e in enumerate(self.elements)
                     if i != self._bottom and self._down[i] == (1 << i) | (1 << self._bottom))


# -- the builder that parsed a closed pair list back into down-sets ---------------
#
# The lattice builder used to close the order by a fixpoint loop, write it
# out as a list of closed name pairs and hand that to the constructor, which
# parsed it back, checked it and validated meets, joins and distributivity on
# n x n tables.  Both return (elements, J-masks, J(L)) or raise as the library
# did; they are the reference for the constructor's one parse, closure and
# validator.


def reference_lattice(elements, leq_pairs) -> tuple:
    """(elements, J-masks, J(L)) of the lattice the closed order describes."""
    elements = tuple(elements)
    if len(elements) > SOFT_SIZE_LIMIT:
        raise SizeLimitExceeded(
            f"{len(elements)} elements exceeds the {SOFT_SIZE_LIMIT}-element limit")
    if not elements:
        raise MalformedDocument("a lattice needs at least one element")
    if len(set(elements)) != len(elements):
        raise MalformedDocument("duplicate element names")
    idx = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    down = [0] * n
    for a, b in leq_pairs:
        ia = idx.get(a)
        ib = idx.get(b)
        if ia is None or ib is None:
            raise MalformedDocument(f"order pair ({a!r}, {b!r}) mentions an unknown element")
        down[ib] |= 1 << ia
    for i in range(n):
        down[i] |= 1 << i
    for a in range(n):
        for b in range(n):
            if down[b] >> a & 1 and a != b and down[a] >> b & 1:
                raise NotALattice(
                    f"order is not antisymmetric on ({elements[a]!r}, {elements[b]!r})")
    up = [sum(1 << b for b in range(n) if down[b] >> a & 1) for a in range(n)]
    down_of = {d: i for i, d in enumerate(down)}
    up_of = {u: i for i, u in enumerate(up)}
    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            m = down_of.get(down[a] & down[b])
            if m is None:
                raise NotALattice(f"elements {elements[a]!r} and {elements[b]!r} have no meet")
            j = up_of.get(up[a] & up[b])
            if j is None:
                raise NotALattice(f"elements {elements[a]!r} and {elements[b]!r} have no join")
            meet[a][b] = meet[b][a] = m
            join[a][b] = join[b][a] = j
    jirr = [x for x in range(n) if down[x] ^ (1 << x) in down_of]
    jmask = [sum(1 << k for k, j in enumerate(jirr) if down[x] >> j & 1) for x in range(n)]
    if any(jmask[join[a][b]] != jmask[a] | jmask[b] for a in range(n) for b in range(a + 1, n)):
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                        raise NotDistributive(
                            "distributivity fails on the triple "
                            f"({elements[a]!r}, {elements[b]!r}, {elements[c]!r})")
        raise ConsistencyError("join-primality and the triple sweep disagree")
    return elements, tuple(jmask), tuple(jirr)


def reference_lattice_from_order(elements, pairs) -> tuple:
    """``reference_lattice`` of the reflexive-transitive closure of the pairs,
    closed by a fixpoint loop and passed on as a list of name pairs."""
    elements = tuple(elements)
    if len(elements) > SOFT_SIZE_LIMIT:
        raise SizeLimitExceeded(
            f"{len(elements)} elements exceeds the {SOFT_SIZE_LIMIT}-element limit")
    idx = {e: i for i, e in enumerate(elements)}
    n = len(elements)
    down = [1 << i for i in range(n)]
    for a, b in pairs:
        if a not in idx or b not in idx:
            raise MalformedDocument(f"order pair ({a!r}, {b!r}) mentions an unknown element")
        down[idx[b]] |= 1 << idx[a]
    changed = True
    while changed:
        changed = False
        for b in range(n):
            acc = down[b]
            for a in range(n):
                if down[b] >> a & 1:
                    acc |= down[a]
            if acc != down[b]:
                down[b] = acc
                changed = True
    closed = [(elements[a], elements[b]) for b in range(n) for a in range(n) if down[b] >> a & 1]
    return reference_lattice(elements, closed)


def _extreme(candidates, cones):
    """The unique m among `candidates` whose cone contains all of them."""
    mask = candidates
    while mask:
        low = mask & -mask
        m = low.bit_length() - 1
        if candidates & ~cones[m] == 0:
            return m
        mask ^= low
    raise NotALattice("a pair has no meet or no join")


def table_boolean_atoms(t: TableLattice) -> tuple:
    """The nonzero complemented elements with no other nonzero complemented
    element below them."""
    complemented = sum(1 << i for i, c in enumerate(t._comp) if c is not None and i != t._bottom)
    return tuple(e for i, e in enumerate(t.elements)
                 if complemented >> i & 1 and t._down[i] & complemented == 1 << i)


def table_quotient(t: TableLattice, block_of) -> tuple:
    """(block names, order pairs) of the quotient by the partition: block i
    lies below block j iff the meet of their first members stays in i."""
    firsts = {}
    for i, b in enumerate(block_of):
        firsts.setdefault(b, i)
    blocks = [[e for e, b in zip(t.elements, block_of) if b == k] for k in sorted(firsts)]
    names = [m[0] if len(m) == 1 else "{" + ",".join(m) + "}" for m in blocks]
    reps = [firsts[k] for k in sorted(firsts)]
    pairs = [(names[i], names[j]) for i, ri in enumerate(reps) for j, rj in enumerate(reps)
             if block_of[t._meet[ri][rj]] == block_of[ri]]
    return names, pairs


def leq_order(lattice: FiniteLattice) -> tuple:
    """(elements, every pair (a, b) with a <= b), read off the lattice's
    ``leq``: an order to hand to the constructor or the table lattice."""
    els = list(lattice.elements)
    return els, [(a, b) for a in els for b in els if lattice.leq(a, b)]


@cache
def table_of(lattice: FiniteLattice) -> TableLattice:
    """The table lattice with the library lattice's elements and order."""
    return TableLattice(*leq_order(lattice))


def certified(carrier: FiniteLattice, terms) -> SimpleFunction:
    """The function with these terms, which the oracle claims canonical:
    the constructor takes any term list, and the canonical form is unique,
    so its terms equal the list only if the claim holds."""
    terms = tuple(terms)
    g = SimpleFunction(carrier, terms)
    assert g.terms == terms, (terms, g.terms)
    return g


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
    """Canonical terms straight from the level sets, each joined in the
    table lattice; ``atoms`` is a disjoint complemented cover of the top."""
    t = table_of(lat)
    terms = []
    for v in sorted(set(values.values())):
        terms.append((v, reduce(t.join, [x for x in atoms if values[x] == v], t.bottom)))
    return certified(lat, terms)


def pointwise_of_simple(g: SimpleFunction, atoms) -> dict:
    out = {}
    for r, a in g.terms:
        for x in atoms:
            if g.carrier.leq(x, a):
                out[x] = r
    return out


def fractions_upto(low: int, high: int, max_denominator: int) -> list:
    """Every n/d in [low, high] with d <= max_denominator, the values that
    ``st.fractions(low, high, max_denominator=...)`` draws, nearest to 0
    first so that ``st.sampled_from`` over them shrinks toward 0."""
    return sorted({Fraction(n, d) for d in range(1, max_denominator + 1)
                   for n in range(low * d, high * d + 1)}, key=lambda v: (abs(v), v))


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


def equality_relation(lattice: FiniteLattice) -> Congruence:
    """The equality relation 0_C: every element in a block of its own."""
    return congruence_of(lattice, range(lattice.size))


def all_pairs(lattice: FiniteLattice) -> Congruence:
    """The all-pairs relation 1_C: one block holding every element."""
    return congruence_of(lattice, [0] * lattice.size)


def block_containing(theta: Congruence, a: str) -> tuple:
    """The block of theta that holds the element a."""
    return theta.blocks()[theta.block_of[theta.lattice.index(a)]]


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
    table = table_of(lattice)
    meet, join = table._meet, table._join
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
    eq = equality_relation(lattice)
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


# -- measure tables sublocale by sublocale -----------------------------------------
#
# The per-sublocale formulas that built measures before they were summed over
# keep-masks: each walks the sublocales in frame order and reads the partition
# (block of 0, nabla, complements, the refinement order), never a keep-mask.


def weights_table(frame, weights) -> list:
    """Atom weights on a Boolean L: every congruence is nabla(b) for a unique
    b, its sublocale is the open sublocale o(b^c), so its measure is the
    weight sum over the atoms below b^c."""
    lat = frame.lattice
    atoms = lat.atoms()
    table = []
    for theta in frame.congruences:
        b = lat.join_all(block_containing(theta, lat.bottom))
        assert theta == nabla_by_partition(lat, b), "the carrier is not Boolean"
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
        b = space.subset_of_name(lat.join_all(block_containing(theta, lat.bottom)))
        table.append(space.lam[frozenset(space.points) - b])
    return table


def random_table(rng, frame, inf_probability: float = 0.0) -> list:
    """Random weights on the atoms of S(L), drawn in their frame order; the
    measure of S is the weight sum over the atoms below S in the sublocale
    order."""
    atoms = frame.atoms()
    weights = [random_weight(rng, inf_probability) for _ in atoms]
    table = []
    for s in frame.congruences:
        total = Fraction(0)
        for a, w in zip(atoms, weights):
            if frame.leq(a, s):
                total = ext_add(total, w)
        table.append(total)
    return table


# -- frame labels by scanning L ------------------------------------------------------
#
# How the frame named congruences before it read the keep-masks: nabla(a)
# and delta(a) as partitions (x grouped by x \/ a, or by x /\ a), and
# ``labels_of`` as a scan of every element of L for the ones whose
# partition is the congruence's.


def nabla_by_partition(lattice: FiniteLattice, a: str) -> Congruence:
    return congruence_of(lattice, [lattice.join(x, a) for x in lattice.elements])


def delta_by_partition(lattice: FiniteLattice, a: str) -> Congruence:
    return congruence_of(lattice, [lattice.meet(x, a) for x in lattice.elements])


def labels_by_scan(theta: Congruence) -> dict:
    """The elements a with theta = nabla(a), and those with theta =
    delta(a), in element order."""
    lat = theta.lattice

    def scan(op):
        return tuple(a for a in lat.elements
                     if canonical([op(x, a) for x in lat.elements]) == theta.block_of)

    return {"nabla": scan(lat.join), "delta": scan(lat.meet)}


def ref_name_by_scan(frame, s: Congruence) -> str:
    if s == frame.top:
        return "L"
    if s == frame.bottom:
        return "void"
    labels = labels_by_scan(s)
    if labels["delta"]:
        return f"open:{labels['delta'][0]}"
    if labels["nabla"]:
        return f"closed:{labels['nabla'][0]}"
    return "blocks:" + "|".join(",".join(b) for b in s.blocks())


# -- the measure sweep on pair lists ------------------------------------------------
#
# The pair tables S(L) built for the exhaustive M1-M3 sweep before the
# sweep walked the keep-masks in place, and that sweep on them: the
# reference for ``measure.check_axioms``'s pair order and messages.


def positions(frame) -> dict:
    """The index in frame order of each sublocale, by keep-mask."""
    return {s.keep: i for i, s in enumerate(frame.congruences)}


def modularity_pairs(frame) -> list:
    """(i, j, index of S_i /\\ S_j, index of S_i \\/ S_j) for all i < j."""
    masks = [s.keep for s in frame.congruences]
    pos = positions(frame)
    return [(i, j, pos[masks[i] & masks[j]], pos[masks[i] | masks[j]])
            for i in range(len(masks)) for j in range(i + 1, len(masks))]


def order_pairs(frame) -> list:
    """(i, j) whenever S_i <= S_j in the sublocale order, i.e. the keep-mask
    of S_i is contained in that of S_j."""
    masks = [s.keep for s in frame.congruences]
    return [(i, j)
            for i, qi in enumerate(masks)
            for j, qj in enumerate(masks)
            if i != j and qi & qj == qi]


def check_axioms_by_pairs(frame, table) -> None:
    """M1, then M2 over ``order_pairs``, then M3 over ``modularity_pairs``;
    raises AxiomViolation on the first failure."""
    subs = frame.congruences
    if table[positions(frame)[0]] != Fraction(0):
        raise AxiomViolation("(M1) fails: the void sublocale must have measure 0")
    for i, j in order_pairs(frame):
        if not ext_le(table[i], table[j]):
            raise AxiomViolation(
                f"(M2) fails on ({frame.ref_name(subs[i])}, {frame.ref_name(subs[j])}): "
                f"{format_extended(table[i])} > {format_extended(table[j])}")
    for i, j, m, jn in modularity_pairs(frame):
        left = ext_add(table[i], table[j])
        right = ext_add(table[jn], table[m])
        if left != right:
            raise AxiomViolation(
                f"(M3) fails on ({frame.ref_name(subs[i])}, {frame.ref_name(subs[j])}): "
                f"{format_extended(table[i])} + {format_extended(table[j])} != "
                f"{format_extended(table[jn])} + {format_extended(table[m])}")


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
        return certified(carrier, ((Fraction(0), carrier.top),))
    return certified(carrier, sorted(by_coeff.items()))


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


# -- Fraction ladder kernels ----------------------------------------------------
#
# add, mul_nonneg, leq, join_meet, seq_inf/seq_sup, negate, scale, limits
# and the two bridges between ladders and terms as they were written on
# Fractions and names: grids merged as sets of Fractions, ladders read
# with upper_at/lower_at, quotients q / b_j formed as Fractions, covers
# joined and cells met by name.  The differential tests compare the
# integer kernels with these: the same ladders and values, or the same
# exception class and message.  Summability has one reference,
# ``summability_by_terms`` below.

_DIFFERENT = "the two functions live on different carriers"


def _lower_reps(bp):
    return tuple(bp) + (bp[-1] + 1,) if bp else (Fraction(0),)


def _upper_reps(bp):
    return (bp[0] - 1,) + tuple(bp) if bp else (Fraction(0),)


def leq_by_fractions(f, g):
    check_same_carrier(f.carrier, g.carrier, _DIFFERENT)
    lat = f.carrier
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    by_upper = all(lat.leq(f.upper_at(p), g.upper_at(p)) for p in _upper_reps(grid))
    by_lower = all(lat.leq(g.lower_at(q), f.lower_at(q)) for q in _lower_reps(grid))
    if by_upper != by_lower:
        raise ConsistencyError("upper and lower order tests disagree")
    return by_upper


def join_meet_by_fractions(f, g):
    check_same_carrier(f.carrier, g.carrier, _DIFFERENT)
    lat = f.carrier
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    ur, lr = _upper_reps(grid), _lower_reps(grid)
    fj = CutFunction(lat, grid, [lat.join(f.upper_at(p), g.upper_at(p)) for p in ur],
                     [lat.meet(f.lower_at(q), g.lower_at(q)) for q in lr])
    fm = CutFunction(lat, grid, [lat.meet(f.upper_at(p), g.upper_at(p)) for p in ur],
                     [lat.join(f.lower_at(q), g.lower_at(q)) for q in lr])
    return fj, fm


def add_by_fractions(f, g):
    check_same_carrier(f.carrier, g.carrier, _DIFFERENT)
    if not (f.is_finite() and g.is_finite()):
        raise NotFinite("addition is defined for finite functions only")
    lat = f.carrier
    if not f.breakpoints or not g.breakpoints:
        return f
    b = g.breakpoints
    bp = sorted({x + y for x in f.breakpoints for y in b})
    lower = [lat.join_all(lat.meet(f.lower_at(q - bj), gl) for bj, gl in zip(b, g.lower[1:]))
             for q in _lower_reps(bp)]
    upper = [lat.join_all(lat.meet(f.upper_at(p - bj), gu) for bj, gu in zip(b, g.upper[:-1]))
             for p in _upper_reps(bp)]
    return CutFunction(lat, bp, upper, lower)


def mul_nonneg_by_fractions(f, g):
    check_same_carrier(f.carrier, g.carrier, _DIFFERENT)
    if not (f.is_nonnegative() and g.is_nonnegative()):
        raise NegativeOperand("multiplication needs nonnegative operands")
    if not (f.is_finite() and g.is_finite()):
        raise NotFinite("multiplication is defined for finite functions only")
    lat = f.carrier
    if not f.breakpoints or not g.breakpoints:
        return f
    b = g.breakpoints
    first = bisect_right(b, Fraction(0))
    pos = b[first:]
    bp = sorted({Fraction(0)} | {x * y for x in f.breakpoints for y in pos if x > 0})
    lower = []
    for q in _lower_reps(bp):
        if q <= 0:
            lower.append(lat.bottom)
            continue
        acc = lat.meet(f.lower[-1], g.lower[first])
        for bj, gl in zip(pos, g.lower[first + 1:]):
            acc = lat.join(acc, lat.meet(f.lower_at(q / bj), gl))
        lower.append(acc)
    upper = []
    for p in _upper_reps(bp):
        upper.append(lat.top if p < 0 else lat.join_all(
            lat.meet(f.upper_at(p / bj), gu) for bj, gu in zip(pos, g.upper[first:-1])))
    return CutFunction(lat, bp, upper, lower)


def _join_cuts_by_fractions(fs, name, reps, cut, label):
    fs = list(fs)
    if not fs:
        raise InvalidArgument(f"{name} needs at least one function")
    for g in fs[1:]:
        check_same_carrier(fs[0].carrier, g.carrier, _DIFFERENT)
    lat = fs[0].carrier
    grid = sorted(set().union(*(set(f.breakpoints) for f in fs)))
    joined, comps = [], []
    for t in reps(grid):
        v = lat.join_all(cut(f, t) for f in fs)
        try:
            comps.append(lat.complement(v))
        except NotComplemented:
            raise ConsistencyError(
                f"sup of {label}={t} is not complemented (element {v!r})") from None
        joined.append(v)
    return lat, grid, joined, comps


def seq_inf_by_fractions(fs):
    lat, grid, lower, upper = _join_cuts_by_fractions(
        fs, "seq_inf", _lower_reps, CutFunction.lower_at, "lower cuts at q")
    return CutFunction(lat, grid, upper, lower)


def seq_sup_by_fractions(fs):
    lat, grid, upper, lower = _join_cuts_by_fractions(
        fs, "seq_sup", _upper_reps, CutFunction.upper_at, "upper cuts at p")
    return CutFunction(lat, grid, upper, lower)


def negate_by_fractions(f):
    return CutFunction(f.carrier, [-b for b in reversed(f.breakpoints)],
                       f.lower[::-1], f.upper[::-1])


def scale_by_fractions(lam, f):
    lat = f.carrier
    if lam == 0:
        return CutFunction(lat, (Fraction(0),), (lat.top, lat.bottom), (lat.bottom, lat.top))
    if lam < 0:
        return negate_by_fractions(scale_by_fractions(-lam, f))
    return CutFunction(lat, [lam * b for b in f.breakpoints], f.upper, f.lower)


def limits_by_fractions(prefix, cycle):
    """liminf = sup_n inf_{k>=n} and limsup = inf_n sup_{k>=n} of the
    prefix followed by the cycle repeated forever: the suffix from n holds
    prefix[n:] and the cycle for n <= len(prefix), and the cycle alone from
    there on."""
    windows = [list(prefix[n:]) + list(cycle) for n in range(len(prefix) + 1)]
    liminf = seq_sup_by_fractions([seq_inf_by_fractions(fam) for fam in windows])
    limsup = seq_inf_by_fractions([seq_sup_by_fractions(fam) for fam in windows])
    same = (liminf.breakpoints, liminf.upper) == (limsup.breakpoints, limsup.upper)
    return liminf, limsup, liminf if same else None


def to_cut_function_by_names(g):
    """The prefix and suffix joins of the cover, joined by name."""
    lat = g.carrier
    cover = [a for _, a in g.terms]
    return CutFunction(lat, [r for r, _ in g.terms],
                       [lat.join_all(cover[j:]) for j in range(len(cover) + 1)],
                       [lat.join_all(cover[:j]) for j in range(len(cover) + 1)])


def cut_to_simple_by_names(f):
    if not f.is_finite():
        raise NotFinite("only finite functions are simple")
    lat = f.carrier
    return certified(lat, [(r, lat.meet(u, l))
                           for r, u, l in zip(f.breakpoints, f.upper, f.lower[1:])])


def decompose_trace_by_names(f, horizon=12):
    """The decomposition by names and Fractions, as the library ran it
    before it added 1/k on the centre atoms: the cell a_k is the join over
    the terms (r, a) of f_{k-1} of a /\\ f(r + 1/k,-), f_k is
    f_{k-1} + (1/k) chi(a_k) by ``sf_scale`` and ``sf_add``, and the
    residual is the top coefficient of f + (-f_k)."""
    if horizon < 1:
        raise InvalidArgument("horizon must be at least 1")
    if horizon > DECOMPOSITION_LIMIT:
        raise SizeLimitExceeded(
            f"horizon {horizon} exceeds the {DECOMPOSITION_LIMIT}-step limit")
    if not f.is_nonnegative():
        raise NotNonnegative("the decomposition needs a nonnegative function")
    lat = f.carrier
    f_simple = cut_to_simple_by_names(f) if f.is_finite() else None
    steps = []
    fk = zero(lat)
    for k in range(1, horizon + 1):
        cell = lat.join_all(lat.meet(a, f.upper_at(r + Fraction(1, k))) for r, a in fk.terms)
        if cell != lat.bottom:
            fk = sf_add(fk, sf_scale(Fraction(1, k), characteristic_simple(cell, lat)))
        residual = None
        if f_simple is not None:
            residual = sf_add(f_simple, sf_neg(fk)).coefficients()[-1]
        steps.append(DecompositionStep(k, cell, fk, residual))
    return steps


# -- the integrals by term and cell names ---------------------------------------------
#
# How the integrals were summed before they read the value at each point of
# J(L): term by term over the canonical terms, each term's measure read by
# mapping its element name to a congruence; the indefinite integral as one
# such sum per atom of S(L); the general integral through the ladder parts
# f \/ 0 and (-f) \/ 0 and their level cells, met by name; and the
# nonnegativity certificate as a meet with the lower cut g(-,0).


def _signed_sums_by_names(terms, measure, over):
    """(sum of r * mu(S_i /\\ S) over the terms with r > 0, sum of -r * mu
    over those with r < 0), 0 * inf = 0."""
    parts = [Fraction(0), Fraction(0)]
    for r, element in terms:
        if r:
            m = ext_scale(abs(r), _term_measure(measure, element, over))
            parts[r < 0] = ext_add(parts[r < 0], m)
    return tuple(parts)


def summability_by_terms(g, measure, over=None):
    check_same_carrier(g.carrier, measure.frame.as_lattice(),
                       "the simple function does not live on the measure's congruence frame")
    return classify(*_signed_sums_by_names(g.terms, measure, _keep_of(measure, over)))


def indefinite_by_atoms(g, measure):
    """The positive part of the sum by names over each atom of S(L)."""
    if not g.is_nonnegative():
        raise NotNonnegative("the indefinite integral needs a nonnegative function")
    check_same_carrier(g.carrier, measure.frame.as_lattice(),
                       "the simple function does not live on the measure's congruence frame")
    return Measure(measure.frame, [_signed_sums_by_names(g.terms, measure, a.keep)[0]
                                   for a in sorted(measure.frame.atoms(), key=lambda a: a.keep)])


def _nonneg_general_by_names(f, measure, over):
    """The staircase of a nonnegative f: breakpoint * mu(cell /\\ S) for
    each level cell upper[j] /\\ lower[j+1], and +inf when the region where
    the upper ladder never drops, upper[-1], meets S in positive measure."""
    lat = f.carrier
    if _term_measure(measure, f.upper[-1], over) != 0:
        return POS_INF
    cells = [lat.meet(u, l) for u, l in zip(f.upper, f.lower[1:])]
    return _signed_sums_by_names(zip(f.breakpoints, cells), measure, over)[0]


def integrate_general_by_ladders(f, measure, over=None):
    check_same_carrier(f.carrier, measure.frame.as_lattice(),
                       "the function does not live on the measure's congruence frame")
    q = _keep_of(measure, over)
    zero = constant(Fraction(0), f.carrier)
    pos = _nonneg_general_by_names(join_meet(f, zero)[0], measure, q)
    neg = _nonneg_general_by_names(join_meet(negate(f), zero)[0], measure, q)
    return report_value(classify(pos, neg))


def certificate_by_lower_cut(g, measure, s):
    """theta_S^c /\\ g(-,0) = 0 by name, then the integral's sign."""
    facade = measure.frame.as_lattice()
    check_same_carrier(g.carrier, facade,
                       "the simple function does not live on the measure's congruence frame")
    _keep_of(measure, s)
    comp = measure.frame.complement(s).partition_name()
    if facade.meet(comp, to_cut_function(g).lower_at(Fraction(0))) != facade.bottom:
        return False
    value, _ = integrate_simple(g, measure, s)
    if not ext_le(Fraction(0), value):
        raise ConsistencyError(f"certificate held but the integral is {format_extended(value)}")
    return True


# -- the Birkhoff transport to the points of J(L) -----------------------------------
#
# S(L) is 2^J(L), so a simple function over C(L) and a measure on S(L) are a
# classical simple function and measure on the point set J(L).  Everything
# here is read off partitions: J(L) from lower covers in the table lattice,
# and a congruence keeps j iff j and its lower cover lie in different
# blocks.  A term element of C(L) is named by its partition, and the term's
# sublocale S_i (theta_i = theta_{S_i}^c) keeps the points theta_i collapses.


@cache
def points_with_lower_covers(lattice: FiniteLattice) -> list:
    """(j, its lower cover) for each element j with exactly one lower cover
    in the table lattice: the join-irreducibles."""
    t = table_of(lattice)
    out = []
    for x in lattice.elements:
        below = [y for y in lattice.elements if y != x and t.leq(y, x)]
        covers = [y for y in below if not any(z != y and t.leq(y, z) for z in below)]
        if len(covers) == 1:
            out.append((x, covers[0]))
    return out


def kept_points(blocks, points) -> frozenset:
    """The names "p<j>" of the points j that the partition keeps."""
    block = {e: i for i, members in enumerate(blocks) for e in members}
    return frozenset(f"p{j}" for j, cover in points if block[j] != block[cover])


def transport(lattice: FiniteLattice, measure):
    """(the powerset space over J(L) with lambda({j}) the measure of the
    sublocale keeping j alone, {sublocale: the points it keeps})."""
    points = points_with_lower_covers(lattice)
    kept = {s: kept_points(s.blocks(), points) for s in measure.frame.congruences}
    weights = {next(iter(k)): measure.value(s) for s, k in kept.items() if len(k) == 1}
    return FiniteMeasurableSpace.powerset([f"p{j}" for j, _ in points], weights), kept


def transported(g: SimpleFunction, lattice: FiniteLattice, space) -> ClassicalSimpleFunction:
    """f(j) = the sum of r_i over the terms whose sublocale keeps j."""
    points = points_with_lower_covers(lattice)
    values = {p: Fraction(0) for p in space.points}
    for r, element in g.terms:
        blocks = [b.split(",") for b in element[1:-1].split("|")]
        for p in values.keys() - kept_points(blocks, points):
            values[p] += r
    return ClassicalSimpleFunction(space, values)


# -- classical preimages and the classical ring -----------------------------------------
#
# Pointwise definitions on the points of a classical space: references for
# the bridge to the pointfree side.


def preimage_below(f: ClassicalSimpleFunction, r) -> frozenset:
    return frozenset(p for p, v in f.values.items() if v < r)


def preimage_above(f: ClassicalSimpleFunction, r) -> frozenset:
    return frozenset(p for p, v in f.values.items() if v > r)


def classical_add(f: ClassicalSimpleFunction, g: ClassicalSimpleFunction) -> ClassicalSimpleFunction:
    return ClassicalSimpleFunction(f.space, {p: f.values[p] + g.values[p] for p in f.space.points})


def classical_mul(f: ClassicalSimpleFunction, g: ClassicalSimpleFunction) -> ClassicalSimpleFunction:
    return ClassicalSimpleFunction(f.space, {p: f.values[p] * g.values[p] for p in f.space.points})


def classical_scale(lam, f: ClassicalSimpleFunction) -> ClassicalSimpleFunction:
    return ClassicalSimpleFunction(f.space, {p: lam * v for p, v in f.values.items()})


# -- classical spaces checked by sweeps over all pairs -----------------------------
#
# The space constructor the bridge used before its checks ran on atoms: closure
# under complement and union and additivity of lambda checked pair by pair,
# the atoms found as the minimal nonempty members, and the lattice built from
# every inclusion pair by the order-validating constructor.


class SweepSpace:
    """``algebra``, ``atoms`` and ``lam`` of a checked space; ``lattice()``
    builds the algebra's lattice from its inclusion pairs."""

    def __init__(self, points, algebra, lam):
        self.points = tuple(points)
        sets = {frozenset(s) for s in algebra}
        sweep_check_algebra(self.points, sets)
        order = {p: i for i, p in enumerate(self.points)}
        self.algebra = tuple(sorted(sets, key=lambda s: (len(s), sorted(order[p] for p in s))))
        self.lam = dict(lam)
        for s in self.algebra:
            if s not in self.lam:
                raise MalformedDocument(f"no weight for subset {self.name_of(s)!r}")
        if self.lam[frozenset()] != Fraction(0):
            raise AxiomViolation("lambda(empty) must be 0")
        for s in self.algebra:
            check_measure_value(self.lam[s])
        for s in self.algebra:
            for t in self.algebra:
                if not (s & t):
                    if ext_add(self.lam[s], self.lam[t]) != self.lam[s | t]:
                        raise AxiomViolation(
                            f"lambda is not additive on {self.name_of(s)!r}, {self.name_of(t)!r}")
        nonempty = [s for s in sets if s]
        self.atoms = tuple(sorted((s for s in nonempty if not any(t < s for t in nonempty)),
                                  key=sorted))

    def name_of(self, subset) -> str:
        return subset_name(subset, self.points)

    def lattice(self) -> FiniteLattice:
        names = [self.name_of(s) for s in self.algebra]
        return FiniteLattice(names, [(names[i], names[j])
                                     for i, s in enumerate(self.algebra)
                                     for j, t in enumerate(self.algebra) if s <= t])


def sweep_check_algebra(points, sets) -> None:
    """Distinct points; the sets are subsets of them, contain the empty and
    the whole set and are closed under complement and union, visited in a
    fixed order."""
    if len(sets) > SOFT_SIZE_LIMIT:
        raise SizeLimitExceeded(
            f"an algebra of {len(sets)} sets exceeds the {SOFT_SIZE_LIMIT}-set limit")
    if len(set(points)) != len(points):
        raise MalformedDocument("duplicate point names")
    universe = frozenset(points)
    sets = sorted(sets, key=lambda s: (len(s), sorted(s)))
    for s in sets:
        if not s <= universe:
            raise MalformedDocument(f"subset {sorted(s)!r} contains unknown points")
    members = set(sets)
    if frozenset() not in members or universe not in members:
        raise MalformedDocument("the algebra must contain the empty set and the whole set")
    for s in sets:
        if universe - s not in members:
            raise MalformedDocument(
                f"the algebra is not closed under complement at {sorted(s)!r}")
    for s in sets:
        for t in sets:
            if s | t not in members:
                raise MalformedDocument(
                    f"the algebra is not closed under union at {sorted(s)!r}, {sorted(t)!r}")
