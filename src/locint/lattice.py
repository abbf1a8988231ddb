"""Finite bounded distributive lattices, held as their Birkhoff J-masks.

Elements are opaque strings and the order is given extensionally, by any
set of pairs that generates it.  The constructor parses the pairs into
down-set bitmasks and closes them reflexively and transitively by
Warshall's algorithm; one validator then checks them (antisymmetry, every
binary meet and join, distributivity) and keeps for each element x the
set J(x) of join-irreducibles below it as a bitmask (bit k: the k-th
join-irreducible in element order).  By Birkhoff's representation the
masks are the lattice: J(x /\\ y) = J(x) & J(y), J(x \\/ y) = J(x) | J(y),
x <= y iff J(x) is a subset of J(y), and a complemented x has J(x') = J(L)
minus J(x), as every join-irreducible is join-prime.  So meet, join, order
and complement are bit operations, names are looked up only at the
boundary, and nothing is stored per pair.

Distributivity is checked in O(n^2), as J(x \\/ y) = J(x) | J(y) for all
x, y, in the pass that looks up every meet and join among the down-sets
and up-sets; only a lattice that fails it gets meet and join tables, for
the O(n^3) sweep over all triples that names the first failing triple.
Powersets and the carriers of congruence frames, whose masks form a whole
powerset, are built straight from their masks.  A lattice built from an
order has at most ``SOFT_SIZE_LIMIT`` elements.

Instances are immutable after construction and safe to share between
threads.  A lattice holds no reference to anything built over it:
``congruence_frame()`` builds a new frame on each call, so the caller holds
it.  The one table built on first use is the atoms of the Boolean centre,
with the row of centre atoms below each complemented element, which
``simple.canonicalize`` reads on every call; threads racing on it may each
build a copy, and the copies are equal.  At this scale every countable
join is a finite join, so a finite distributive lattice serves as a
sigma-frame.
"""

from __future__ import annotations

from functools import reduce
from operator import and_
from typing import Dict, Iterable, List, Sequence, Tuple

from .errors import (
    CarrierMismatch,
    ConsistencyError,
    MalformedDocument,
    NotALattice,
    NotComplemented,
    NotDistributive,
    SizeLimitExceeded,
)

#: Soft size bound on lattices built from an order (and on the carriers of
#: congruence frames).
SOFT_SIZE_LIMIT = 64


def _down_sets(elements: Sequence[str],
               pairs: Iterable[Tuple[str, str]]) -> Tuple[Tuple[str, ...], List[int]]:
    """Parse an order: the elements and, for each, the bitmask of the
    elements below it in the reflexive-transitive closure of the pairs,
    closed by Warshall's algorithm.  The faults are named in this order:
    more than ``SOFT_SIZE_LIMIT`` elements, a pair naming an unknown
    element, no elements, duplicate names."""
    elements = tuple(elements)
    if len(elements) > SOFT_SIZE_LIMIT:
        raise SizeLimitExceeded(
            f"{len(elements)} elements exceeds the {SOFT_SIZE_LIMIT}-element limit")
    idx = {e: i for i, e in enumerate(elements)}
    down = [1 << i for i in range(len(elements))]
    for a, b in pairs:
        ia, ib = idx.get(a), idx.get(b)
        if ia is None or ib is None:
            raise MalformedDocument(f"order pair ({a!r}, {b!r}) mentions an unknown element")
        down[ib] |= 1 << ia
    if not elements:
        raise MalformedDocument("a lattice needs at least one element")
    if len(idx) != len(elements):
        raise MalformedDocument("duplicate element names")
    for k in range(len(down)):
        for i, d in enumerate(down):
            if d >> k & 1:
                down[i] = d | down[k]
    return elements, down


def _checked(elements: Tuple[str, ...], down: List[int]) -> Tuple[List[int], List[int]]:
    """Validate the order with the closed down-sets `down` as a
    distributive lattice; return its J-masks and J(L)."""
    n = len(elements)
    up = [0] * n  # up[a] = bitmask of all b with a <= b
    for a in range(n):
        for b in range(n):
            if down[b] >> a & 1:
                if a != b and down[a] >> b & 1:
                    raise NotALattice(
                        f"order is not antisymmetric on ({elements[a]!r}, {elements[b]!r})")
                up[a] |= 1 << b
    down_of = {d: i for i, d in enumerate(down)}
    up_of = {u: i for i, u in enumerate(up)}

    # J(L): x is join-irreducible iff the elements strictly below x have
    # a greatest element, i.e. its strict down-set is some element's
    # down-set (the bottom's is empty, so it is not in J(L)); jmask[x] is
    # the set of j <= x.
    jirr = [x for x in range(n) if down[x] ^ (1 << x) in down_of]
    jmask = [sum(1 << k for k, j in enumerate(jirr) if down[x] >> j & 1) for x in range(n)]

    # The meet of a and b is the element whose down-set is the set of their
    # common lower bounds, and dually for the join.  L is distributive iff
    # J(x \/ y) = J(x) | J(y) for all x, y (every join-irreducible is
    # join-prime), so only when that fails are the meet and join tables
    # built, for the O(n^3) sweep over all triples that names the first
    # failing triple.
    prime = True
    for a in range(n):
        for b in range(a + 1, n):
            if down[a] & down[b] not in down_of:
                raise NotALattice(f"elements {elements[a]!r} and {elements[b]!r} have no meet")
            j = up_of.get(up[a] & up[b])
            if j is None:
                raise NotALattice(f"elements {elements[a]!r} and {elements[b]!r} have no join")
            prime = prime and jmask[j] == jmask[a] | jmask[b]
    if prime:
        return jmask, jirr
    meet = [[down_of[x & y] for y in down] for x in down]
    join = [[up_of[x & y] for y in up] for x in up]
    for a, meet_a in enumerate(meet):
        for b, join_b in enumerate(join):
            for c in range(n):
                if meet_a[join_b[c]] != join[meet_a[b]][meet_a[c]]:
                    raise NotDistributive(
                        "distributivity fails on the triple "
                        f"({elements[a]!r}, {elements[b]!r}, {elements[c]!r})")
    raise ConsistencyError("join-primality and the triple sweep disagree")


class FiniteLattice:
    """A validated finite bounded distributive lattice.

    ``_jmask[i]`` is J(x) for the i-th element x, ``_mask`` maps x to it and
    ``_at`` maps it back.  The bottom's mask is 0, the top's ``_full`` = J(L),
    and ``_jirr`` holds the element indices of J(L) in bit order.

    The constructor takes the elements and any pairs (a, b), meaning
    a <= b, that generate the order: it closes them by Warshall's algorithm
    and checks the result (antisymmetry, every binary meet and join,
    distributivity).  ``powerset_lattice`` builds a powerset straight from
    its masks.
    """

    __slots__ = ("elements", "_idx", "_jmask", "_mask", "_at", "_full", "_jirr",
                 "_centre", "_rows")

    def __init__(self, elements: Sequence[str], leq_pairs: Iterable[Tuple[str, str]]):
        elements, down = _down_sets(elements, leq_pairs)
        self._set(elements, *_checked(elements, down))

    @classmethod
    def _from_masks(cls, elements: Sequence[str], masks: Iterable[int]) -> "FiniteLattice":
        """The Boolean lattice on `elements` ordered by inclusion of `masks`,
        which are the 2^k masks over k bits, one per element.  The bits are
        renumbered so that bit i stands for the i-th atom in element order,
        the numbering the constructor gives, so equal orders compare equal."""
        elements, masks = tuple(elements), tuple(masks)
        if len(set(elements)) != len(elements):
            raise MalformedDocument("duplicate element names")
        atoms = [i for i, m in enumerate(masks) if m and not m & (m - 1)]
        bit = {masks[i]: 1 << k for k, i in enumerate(atoms)}
        renumbered = [0] * len(masks)
        for m in range(1, len(masks)):
            low = m & -m
            renumbered[m] = renumbered[m ^ low] | bit[low]
        lattice = cls.__new__(cls)
        lattice._set(elements, [renumbered[m] for m in masks], atoms)
        return lattice

    def _set(self, elements: Tuple[str, ...], jmask: Sequence[int], jirr: Sequence[int]) -> None:
        self.elements = elements
        self._idx: Dict[str, int] = {e: i for i, e in enumerate(elements)}
        self._jmask = tuple(jmask)
        self._mask: Dict[str, int] = dict(zip(elements, self._jmask))
        self._at: Dict[int, str] = dict(zip(self._jmask, elements))
        self._full = (1 << len(jirr)) - 1
        self._jirr = tuple(jirr)
        self._centre = self._rows = None

    # -- basic queries -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def bottom(self) -> str:
        return self._at[0]

    @property
    def top(self) -> str:
        return self._at[self._full]

    def index(self, name: str) -> int:
        try:
            return self._idx[name]
        except (KeyError, TypeError):  # a name that is not a string may be unhashable
            raise MalformedDocument(f"unknown lattice element {name!r}") from None

    def jmask(self, name: str) -> int:
        """J(name), the join-irreducibles below the element, as a bitmask."""
        try:
            return self._mask[name]
        except KeyError:
            raise MalformedDocument(f"unknown lattice element {name!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return not ~self.jmask(b) & self.jmask(a)  # b is looked up first

    def meet(self, a: str, b: str) -> str:
        return self._at[self.jmask(a) & self.jmask(b)]

    def join(self, a: str, b: str) -> str:
        return self._at[self.jmask(a) | self.jmask(b)]

    def join_all(self, items: Iterable[str]) -> str:
        acc = 0
        for x in items:
            acc |= self.jmask(x)
        return self._at[acc]

    # -- complements ----------------------------------------------------------

    def complement(self, a: str) -> str:
        c = self._at.get(self._full ^ self.jmask(a))
        if c is None:
            raise NotComplemented(f"{a!r} is not complemented in this lattice")
        return c

    def complemented_elements(self) -> Tuple[str, ...]:
        return tuple(e for e, m in zip(self.elements, self._jmask)
                     if (self._full ^ m) in self._at)

    def is_boolean(self) -> bool:
        return len(self.elements) == self._full + 1

    def atoms(self) -> Tuple[str, ...]:
        """The elements covering the bottom: those whose mask is one bit."""
        return tuple(e for e, m in zip(self.elements, self._jmask) if m and not m & (m - 1))

    def _centre_atoms(self) -> Tuple[int, ...]:
        """The masks of the atoms of the Boolean centre Z(L) (the complemented
        elements) in element order, built on first use: the atom holding a
        join-irreducible j is the meet of the complemented elements above j.
        Each complemented element is the join of the atoms below it; the
        rows of ``_centre_rows`` are built beside the atoms."""
        if self._centre is None:
            comp = [m for m in self._jmask if (self._full ^ m) in self._at]
            atoms = {reduce(and_, [m for m in comp if m >> j & 1]) for j in range(len(self._jirr))}
            centre = tuple(m for m in comp if m in atoms)
            self._rows = {self._at[m]: tuple([i for i, a in enumerate(centre) if a & m]) for m in comp}
            self._centre = centre  # set last: a built centre implies built rows
        return self._centre

    def _centre_rows(self) -> Dict[str, Tuple[int, ...]]:
        """{each complemented element: the indices, in ``_centre_atoms()``
        order, of the centre atoms below it}."""
        self._centre_atoms()
        return self._rows

    def congruence_frame(self):
        """The frame of all congruences, built on each call: hold it."""
        from .congruence import CongruenceFrame
        return CongruenceFrame(self)

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, FiniteLattice)
                                 and self.elements == other.elements
                                 and self._jmask == other._jmask)

    def __hash__(self) -> int:
        return hash((self.elements, self._jmask))

    def __repr__(self) -> str:
        return f"FiniteLattice({len(self.elements)} elements, bottom={self.bottom!r}, top={self.top!r})"


def check_same_carrier(a: FiniteLattice, b: FiniteLattice, message: str) -> None:
    """Raise CarrierMismatch with the message unless a and b are equal."""
    if a is not b and a != b:
        raise CarrierMismatch(message)


# -- factories ----------------------------------------------------------------

def subset_name(members: Iterable[str], atom_order: Sequence[str]) -> str:
    """Canonical name of a subset: "0" for empty, "1" for everything,
    the bare atom for singletons and "{a,b}" otherwise.  The atoms in
    `atom_order` are distinct."""
    members = set(members)
    if not members:
        return "0"
    ordered = [a for a in atom_order if a in members]
    if len(ordered) == len(members) == len(atom_order):
        return "1"
    if len(ordered) == 1:
        return ordered[0]
    return "{" + ",".join(ordered) + "}"


def powerset_lattice(atoms: Sequence[str]) -> FiniteLattice:
    atoms = tuple(atoms)
    if len(set(atoms)) != len(atoms):
        raise MalformedDocument("duplicate atom names")
    if 2 ** len(atoms) > SOFT_SIZE_LIMIT:
        raise SizeLimitExceeded(
            f"powerset over {len(atoms)} atoms exceeds the {SOFT_SIZE_LIMIT}-element limit")
    # the subset with bitmask m holds atoms[i] for each bit i of m
    masks = range(1 << len(atoms))
    names = [subset_name([a for i, a in enumerate(atoms) if m >> i & 1], atoms) for m in masks]
    return FiniteLattice._from_masks(names, masks)


def chain_lattice(names: Sequence[str]) -> FiniteLattice:
    return FiniteLattice(names, [(names[i], names[i + 1]) for i in range(len(names) - 1)])

