"""Congruences on a finite lattice, the congruence frame C(L), and the
coframe view S(L) of sublocales.

A congruence is an equivalence relation compatible with meets (C1) and
joins (C2); at finite scale the countable-join axiom reduces to its binary
form.  Congruences are stored as partitions (block maps), which gives O(1)
membership tests and a canonical equality.

The congruence frame comes from Birkhoff duality (Birkhoff, "Rings of
sets", Duke Math. J. 3, 1937): for a finite distributive L, each subset Q
of the join-irreducibles J(L) gives the congruence x ~ y iff J(x) and J(y)
agree on Q, and every congruence arises from exactly one Q, its keep-mask.
So C(L) is the powerset of J(L), built directly with no closure
computation; on keep-masks the frame meet is ``|``, the join ``&`` and the
complement ``~``.  Its order-dual is the coframe of sublocales, where the
open sublocale o(a) is the quotient by delta(a) = {(x,y) | x/\\a = y/\\a}
(keep-mask J(a)) and the closed sublocale c(a) the quotient by
nabla(a) = {(x,y) | x\\/a = y\\/a} (keep-mask J(L) minus J(a)).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import MalformedDocument, SizeLimitExceeded
from .lattice import SOFT_SIZE_LIMIT, FiniteLattice

#: Enumeration guard: at most this many congruences, i.e. |J(L)| <= 8.  It
#: is checked before anything is built.
CONGRUENCE_LIMIT = 256


class Congruence:
    """A lattice congruence stored as a partition of the carrier.

    Block labels are canonical: blocks are numbered in order of first
    occurrence along the carrier's element order, so two equal congruences
    have identical ``block_of`` tuples.
    """

    __slots__ = ("lattice", "block_of", "_hash")

    def __init__(self, lattice: FiniteLattice, block_of: Sequence[int]):
        relabel: Dict[int, int] = {}
        canon = []
        for b in block_of:
            if b not in relabel:
                relabel[b] = len(relabel)
            canon.append(relabel[b])
        self.lattice = lattice
        self.block_of = tuple(canon)
        self._hash = hash(self.block_of)

    @classmethod
    def equality(cls, lattice: FiniteLattice) -> "Congruence":
        return cls(lattice, range(lattice.size))

    @classmethod
    def all_pairs(cls, lattice: FiniteLattice) -> "Congruence":
        return cls(lattice, [0] * lattice.size)

    @classmethod
    def from_blocks(cls, lattice: FiniteLattice, blocks: Iterable[Iterable[str]]) -> "Congruence":
        block_of = [-1] * lattice.size
        for b, members in enumerate(blocks):
            for name in members:
                i = lattice.index(name)
                if block_of[i] != -1:
                    raise MalformedDocument(f"element {name!r} appears in two blocks")
                block_of[i] = b
        if -1 in block_of:
            missing = lattice.elements[block_of.index(-1)]
            raise MalformedDocument(f"element {missing!r} is not covered by the partition")
        return cls(lattice, block_of)

    def relates(self, a: str, b: str) -> bool:
        return self.block_of[self.lattice.index(a)] == self.block_of[self.lattice.index(b)]

    @property
    def n_blocks(self) -> int:
        return max(self.block_of) + 1

    def blocks(self) -> Tuple[Tuple[str, ...], ...]:
        out: List[List[str]] = [[] for _ in range(self.n_blocks)]
        for i, b in enumerate(self.block_of):
            out[b].append(self.lattice.elements[i])
        return tuple(tuple(block) for block in out)

    def block_containing(self, a: str) -> Tuple[str, ...]:
        return self.blocks()[self.block_of[self.lattice.index(a)]]

    def refines(self, other: "Congruence") -> bool:
        """self <= other in C(L): every self-block sits inside an other-block."""
        seen: Dict[int, int] = {}
        for mine, theirs in zip(self.block_of, other.block_of):
            if mine in seen:
                if seen[mine] != theirs:
                    return False
            else:
                seen[mine] = theirs
        return True

    def partition_name(self) -> str:
        return "{" + "|".join(",".join(b) for b in self.blocks()) + "}"

    def validate_congruence(self) -> None:
        """Check (C1) and (C2); binary compatibility plus transitivity of the
        stored partition implies the general finite forms."""
        lat = self.lattice
        n = lat.size
        els = lat.elements
        for i in range(n):
            for j in range(i + 1, n):
                if self.block_of[i] != self.block_of[j]:
                    continue
                for k in range(n):
                    mi = lat.meet(els[i], els[k])
                    mj = lat.meet(els[j], els[k])
                    if self.block_of[lat.index(mi)] != self.block_of[lat.index(mj)]:
                        raise MalformedDocument(
                            f"(C1) fails: {els[i]!r}~{els[j]!r} but "
                            f"{mi!r}!~{mj!r} after meeting with {els[k]!r}")
                    ji = lat.join(els[i], els[k])
                    jj = lat.join(els[j], els[k])
                    if self.block_of[lat.index(ji)] != self.block_of[lat.index(jj)]:
                        raise MalformedDocument(
                            f"(C2) fails: {els[i]!r}~{els[j]!r} but "
                            f"{ji!r}!~{jj!r} after joining with {els[k]!r}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Congruence)
                and self.block_of == other.block_of
                and (self.lattice is other.lattice or self.lattice == other.lattice))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Congruence({self.partition_name()})"


# -- construction of particular congruences ------------------------------------


def _from_keep_mask(lattice: FiniteLattice, keep: int) -> Congruence:
    """The congruence x ~ y iff J(x) and J(y) agree on the kept
    join-irreducibles (Birkhoff: C(L) is the powerset of J(L))."""
    return Congruence(lattice, [m & keep for m in lattice._jmask])


def _keep_mask(theta: Congruence) -> int:
    """The join-irreducibles j that theta does not collapse onto their lower
    cover; any congruence is determined by this set."""
    lat = theta.lattice
    block = theta.block_of
    return sum(1 << k for k, (j, c) in enumerate(zip(lat._jirr, lat._jcover))
               if block[j] != block[c])


def principal_congruence(lattice: FiniteLattice, a: str, b: str) -> Congruence:
    """Smallest congruence identifying a and b: it collapses exactly the
    join-irreducibles in J(a) symmetric-difference J(b)."""
    jmask = lattice._jmask
    full = (1 << len(lattice._jirr)) - 1
    return _from_keep_mask(lattice, full & ~(jmask[lattice.index(a)] ^ jmask[lattice.index(b)]))


def nabla(lattice: FiniteLattice, a: str) -> Congruence:
    """The closed congruence: x ~ y iff x \\/ a = y \\/ a."""
    return Congruence(lattice, [lattice._join[i][lattice.index(a)] for i in range(lattice.size)])


def delta(lattice: FiniteLattice, a: str) -> Congruence:
    """The open congruence: x ~ y iff x /\\ a = y /\\ a."""
    return Congruence(lattice, [lattice._meet[i][lattice.index(a)] for i in range(lattice.size)])


def open_closed(lattice: FiniteLattice, a: str) -> Tuple[Congruence, Congruence]:
    """The complementary pair (delta(a), nabla(a)) attached to an element."""
    return delta(lattice, a), nabla(lattice, a)


def congruence_meet(c: Congruence, d: Congruence) -> Congruence:
    """Intersection of relations = common refinement of partitions."""
    pairs = list(zip(c.block_of, d.block_of))
    labels: Dict[Tuple[int, int], int] = {}
    out = []
    for p in pairs:
        if p not in labels:
            labels[p] = len(labels)
        out.append(labels[p])
    return Congruence(c.lattice, out)


def congruence_join(c: Congruence, d: Congruence) -> Congruence:
    """Congruence generated by the union of the two relations: keep only
    the join-irreducibles both keep."""
    return _from_keep_mask(c.lattice, _keep_mask(c) & _keep_mask(d))


def quotient(lattice: FiniteLattice, theta: Congruence) -> FiniteLattice:
    """The quotient lattice of blocks with the induced order."""
    blocks = theta.blocks()
    names = [block_name(b) for b in blocks]
    reps = [lattice.index(b[0]) for b in blocks]
    pairs = []
    for i, ri in enumerate(reps):
        for j, rj in enumerate(reps):
            m = lattice._meet[ri][rj]
            if theta.block_of[m] == theta.block_of[ri]:
                pairs.append((names[i], names[j]))
    return FiniteLattice(names, pairs)


def block_name(members: Sequence[str]) -> str:
    return members[0] if len(members) == 1 else "{" + ",".join(members) + "}"


# -- the congruence frame -------------------------------------------------------


def enumerate_congruences(lattice: FiniteLattice) -> "CongruenceFrame":
    """All congruences of the lattice, one per subset Q of J(L), in frame
    order: most blocks first, then by canonical block labels."""
    if lattice.size > SOFT_SIZE_LIMIT:
        raise SizeLimitExceeded(
            f"congruence enumeration limited to {SOFT_SIZE_LIMIT}-element lattices")
    if 1 << len(lattice._jirr) > CONGRUENCE_LIMIT:
        raise SizeLimitExceeded(
            f"more than {CONGRUENCE_LIMIT} congruences; beyond desk scale")
    found = [(_from_keep_mask(lattice, q), q) for q in range(1 << len(lattice._jirr))]
    found.sort(key=lambda cq: (-cq[0].n_blocks, cq[0].block_of))
    return CongruenceFrame(lattice, tuple(c for c, _ in found), tuple(q for _, q in found))


class CongruenceFrame:
    """The frame C(L) of all congruences, ordered by inclusion.

    Each congruence is stored with its keep-mask over J(L); on keep-masks
    the frame meet is ``|``, the join ``&`` and the complement ``~``.
    ``as_lattice`` exposes the frame as a FiniteLattice over canonical
    partition names so that functions and simple functions can use it as a
    carrier.
    """

    __slots__ = ("lattice", "congruences", "masks", "_full", "_index", "_pos",
                 "_facade", "_view", "_nabla", "_delta")

    def __init__(self, lattice: FiniteLattice, congruences: Tuple[Congruence, ...],
                 masks: Tuple[int, ...]):
        self.lattice = lattice
        self.congruences = congruences
        self.masks = masks
        self._full = len(masks) - 1
        self._index = {c.block_of: i for i, c in enumerate(congruences)}
        pos = [0] * len(masks)
        for i, q in enumerate(masks):
            pos[q] = i
        self._pos = tuple(pos)
        self._facade: Optional[FiniteLattice] = None
        self._view = None
        jmask = lattice._jmask
        self._nabla = {a: pos[self._full & ~jmask[i]] for i, a in enumerate(lattice.elements)}
        self._delta = {a: pos[jmask[i]] for i, a in enumerate(lattice.elements)}

    @property
    def size(self) -> int:
        return len(self.congruences)

    def index_of(self, theta: Congruence) -> int:
        try:
            return self._index[theta.block_of]
        except KeyError:
            raise MalformedDocument(
                f"{theta.partition_name()} is not a congruence of this lattice") from None

    @property
    def bottom(self) -> Congruence:
        """The equality relation 0_C = nabla(0) = delta(1)."""
        return self.congruences[0]

    @property
    def top(self) -> Congruence:
        """The all-pairs relation 1_C = nabla(1) = delta(0)."""
        return self.congruences[-1]

    def nabla_of(self, a: str) -> Congruence:
        return self.congruences[self._nabla[a]]

    def delta_of(self, a: str) -> Congruence:
        return self.congruences[self._delta[a]]

    def mask_of(self, theta: Congruence) -> int:
        return self.masks[self.index_of(theta)]

    def meet(self, c: Congruence, d: Congruence) -> Congruence:
        return self.congruences[self._pos[self.mask_of(c) | self.mask_of(d)]]

    def join(self, c: Congruence, d: Congruence) -> Congruence:
        return self.congruences[self._pos[self.mask_of(c) & self.mask_of(d)]]

    def complement(self, theta: Congruence) -> Congruence:
        return self.congruences[self._pos[self._full & ~self.mask_of(theta)]]

    def as_lattice(self) -> FiniteLattice:
        if self._facade is None:
            names = [c.partition_name() for c in self.congruences]
            masks = self.masks
            # theta_i <= theta_j in C(L) iff the keep-mask of i contains j's
            pairs = [(names[i], names[j])
                     for i, qi in enumerate(masks)
                     for j, qj in enumerate(masks) if qi & qj == qj]
            self._facade = FiniteLattice(names, pairs)
        return self._facade

    def congruence_of_element(self, name: str) -> Congruence:
        return self.congruences[self.as_lattice().index(name)]

    def element_of(self, theta: Congruence) -> str:
        return theta.partition_name()

    def labels_of(self, theta: Congruence) -> Dict[str, Tuple[str, ...]]:
        """Which nabla(a) / delta(a) this congruence equals, if any."""
        i = self.index_of(theta)
        return {
            "nabla": tuple(a for a in self.lattice.elements if self._nabla[a] == i),
            "delta": tuple(a for a in self.lattice.elements if self._delta[a] == i),
        }

    def view(self) -> "SublocaleView":
        if self._view is None:
            self._view = SublocaleView(self)
        return self._view

    def __repr__(self) -> str:
        return f"CongruenceFrame({self.size} congruences on {self.lattice!r})"


class SublocaleView:
    """S(L): the congruence list of C(L) with the order reversed.

    A sublocale is identified with its congruence; S <= T holds iff
    theta_T is contained in theta_S, meets in S(L) are joins in C(L) and
    vice versa.  The whole lattice L is the quotient by equality and the
    void sublocale the quotient by the all-pairs relation.
    """

    __slots__ = ("frame", "_pairs", "_order_pairs", "_atoms")

    def __init__(self, frame: CongruenceFrame):
        self.frame = frame
        self._pairs = None
        self._order_pairs = None
        self._atoms = None

    @property
    def sublocales(self) -> Tuple[Congruence, ...]:
        return self.frame.congruences

    @property
    def top(self) -> Congruence:
        """1_S(L): the whole lattice (quotient by equality)."""
        return self.frame.bottom

    @property
    def bottom(self) -> Congruence:
        """0_S(L): the void sublocale (quotient by all pairs)."""
        return self.frame.top

    def leq(self, s: Congruence, t: Congruence) -> bool:
        return t.refines(s)

    def meet(self, s: Congruence, t: Congruence) -> Congruence:
        return self.frame.join(s, t)

    def join(self, s: Congruence, t: Congruence) -> Congruence:
        return self.frame.meet(s, t)

    def complement(self, s: Congruence) -> Congruence:
        return self.frame.complement(s)

    def open_sublocale(self, a: str) -> Congruence:
        return self.frame.delta_of(a)

    def closed_sublocale(self, a: str) -> Congruence:
        return self.frame.nabla_of(a)

    def index_of(self, s: Congruence) -> int:
        return self.frame.index_of(s)

    def atoms(self) -> Tuple[Congruence, ...]:
        """Minimal nonvoid sublocales, the single-bit keep-masks; used to
        seed additive random measures."""
        if self._atoms is None:
            self._atoms = tuple(s for s, q in zip(self.sublocales, self.frame.masks)
                                if q and not q & (q - 1))
        return self._atoms

    # -- naming ---------------------------------------------------------------

    def ref_name(self, s: Congruence) -> str:
        if s == self.top:
            return "L"
        if s == self.bottom:
            return "void"
        labels = self.frame.labels_of(s)
        if labels["delta"]:
            return f"open:{labels['delta'][0]}"
        if labels["nabla"]:
            return f"closed:{labels['nabla'][0]}"
        return "blocks:" + "|".join(",".join(b) for b in s.blocks())

    def resolve_ref(self, ref) -> Congruence:
        frame = self.frame
        if isinstance(ref, dict):
            blocks = ref.get("blocks")
            if not isinstance(blocks, list):
                raise MalformedDocument(f"bad sublocale reference: {ref!r}")
            theta = Congruence.from_blocks(frame.lattice, blocks)
            frame.index_of(theta)
            return theta
        if not isinstance(ref, str):
            raise MalformedDocument(f"bad sublocale reference: {ref!r}")
        text = ref.strip()
        if text == "L":
            return self.top
        if text == "void":
            return self.bottom
        if text.startswith("open:"):
            return self.open_sublocale(_known_element(frame.lattice, text[5:]))
        if text.startswith("closed:"):
            return self.closed_sublocale(_known_element(frame.lattice, text[7:]))
        if text.startswith("blocks:"):
            blocks = [b.split(",") for b in text[7:].split("|")]
            theta = Congruence.from_blocks(frame.lattice, blocks)
            frame.index_of(theta)
            return theta
        raise MalformedDocument(f"unknown sublocale reference {ref!r}")

    # -- precomputed pair tables for measure validation ------------------------

    def modularity_pairs(self) -> List[Tuple[int, int, int, int]]:
        """(i, j, index of S_i /\\ S_j, index of S_i \\/ S_j) for all i < j."""
        if self._pairs is None:
            masks = self.frame.masks
            pos = self.frame._pos
            self._pairs = [(i, j, pos[masks[i] & masks[j]], pos[masks[i] | masks[j]])
                           for i in range(len(masks)) for j in range(i + 1, len(masks))]
        return self._pairs

    def order_pairs(self) -> List[Tuple[int, int]]:
        """(i, j) whenever S_i <= S_j in the sublocale order, i.e. the
        keep-mask of S_i is contained in that of S_j."""
        if self._order_pairs is None:
            masks = self.frame.masks
            self._order_pairs = [(i, j)
                                 for i, qi in enumerate(masks)
                                 for j, qj in enumerate(masks)
                                 if i != j and qi & qj == qi]
        return self._order_pairs


def _known_element(lattice: FiniteLattice, name: str) -> str:
    lattice.index(name)
    return name
