"""Finite bounded distributive lattices with exact meet/join/complement tables.

Elements are opaque strings and the order is given extensionally.  All
derived structure (meet/join tables, bounds, complements) is computed and
validated at construction: partial order axioms, existence of every binary
meet and join, and distributivity.  Instances are immutable after
construction and safe to share between threads; the congruence frame is
built on first use, and threads racing on it may each build a copy, whose
congruences compare equal.

Construction also finds the join-irreducibles J(L) and, for each element x,
the set J(x) of join-irreducibles below it (a bitmask).  These give the
fast distributivity check, O(n^2): L is distributive iff
J(x \\/ y) = J(x) | J(y) for all x, y.  Only a lattice that fails it goes
through the O(n^3) sweep over all triples, which names the first failing
triple.  The congruence frame is built from the same masks.

At this scale every countable join is a finite join, so a finite
distributive lattice serves as a sigma-frame.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Sequence, Tuple

from .errors import (
    CarrierMismatch,
    ConsistencyError,
    MalformedDocument,
    NotALattice,
    NotComplemented,
    NotDistributive,
    SizeLimitExceeded,
)

#: Soft size bound on lattices (and on the carriers of congruence frames).
SOFT_SIZE_LIMIT = 64


class FiniteLattice:
    """A validated finite bounded distributive lattice.

    The constructor expects the order relation to be reflexively and
    transitively closed already; use the factories in this module
    (``powerset_lattice``, ``lattice_from_order``, ``build_lattice``)
    rather than calling it directly.
    """

    __slots__ = ("elements", "_idx", "_down", "_meet", "_join", "_bottom",
                 "_top", "_comp", "_jirr", "_jcover", "_jmask", "_hash", "_frame_cache")

    def __init__(self, elements: Sequence[str], leq_pairs: Iterable[Tuple[str, str]]):
        elements = tuple(elements)
        if not elements:
            raise MalformedDocument("a lattice needs at least one element")
        if len(set(elements)) != len(elements):
            raise MalformedDocument("duplicate element names")
        self.elements = elements
        self._idx: Dict[str, int] = {e: i for i, e in enumerate(elements)}
        n = len(elements)

        # down[b] = bitmask of all a with a <= b
        down = [0] * n
        for a, b in leq_pairs:
            ia = self._idx.get(a)
            ib = self._idx.get(b)
            if ia is None or ib is None:
                raise MalformedDocument(f"order pair ({a!r}, {b!r}) mentions an unknown element")
            down[ib] |= 1 << ia
        for i in range(n):
            down[i] |= 1 << i

        for a in range(n):
            for b in range(n):
                if down[b] >> a & 1:
                    if down[a] & ~down[b]:
                        raise NotALattice("order relation is not transitively closed")
                    if a != b and down[a] >> b & 1:
                        raise NotALattice(
                            f"order is not antisymmetric on ({elements[a]!r}, {elements[b]!r})")
        self._down = tuple(down)

        up = [0] * n
        for b in range(n):
            mask = down[b]
            while mask:
                low = mask & -mask
                up[low.bit_length() - 1] |= 1 << b
                mask ^= low

        meet = [[0] * n for _ in range(n)]
        join = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a, n):
                common = down[a] & down[b]
                m = self._extreme(common, down, elements[a], elements[b], "meet")
                meet[a][b] = meet[b][a] = m
                common_up = up[a] & up[b]
                j = self._extreme(common_up, up, elements[a], elements[b], "join")
                join[a][b] = join[b][a] = j
        self._meet = tuple(tuple(row) for row in meet)
        self._join = tuple(tuple(row) for row in join)

        bot = 0
        top = 0
        for i in range(n):
            bot = meet[bot][i]
            top = join[top][i]
        self._bottom = bot
        self._top = top

        # J(L): x is join-irreducible iff the join of everything strictly
        # below x is not x (for x = 0 that join is empty, so 0 is not in
        # J(L)); jcover[k] is that join for the k-th j, and jmask[x] is the
        # set of j <= x.
        jirr = []
        jcover = []
        for x in range(n):
            below = bot
            mask = down[x] & ~(1 << x)
            while mask:
                low = mask & -mask
                below = join[below][low.bit_length() - 1]
                mask ^= low
            if below != x:
                jirr.append(x)
                jcover.append(below)
        jmask = [sum(1 << k for k, j in enumerate(jirr) if down[x] >> j & 1) for x in range(n)]

        # Fast path: L is distributive iff J(x \/ y) = J(x) | J(y) for all x, y
        # (every join-irreducible is join-prime).  Only when that fails does the
        # O(n^3) triple sweep run, to name the first failing triple.
        if any(jmask[join[a][b]] != jmask[a] | jmask[b]
               for a in range(n) for b in range(a + 1, n)):
            for a in range(n):
                for b in range(n):
                    for c in range(n):
                        if meet[a][join[b][c]] != join[meet[a][b]][meet[a][c]]:
                            raise NotDistributive(
                                "distributivity fails on the triple "
                                f"({elements[a]!r}, {elements[b]!r}, {elements[c]!r})")
            raise ConsistencyError("join-primality and the triple sweep disagree")
        self._jirr = tuple(jirr)
        self._jcover = tuple(jcover)
        self._jmask = tuple(jmask)

        comp: list[Optional[int]] = [None] * n
        for a in range(n):
            for c in range(n):
                if meet[a][c] == bot and join[a][c] == top:
                    # complements are unique in a distributive lattice
                    comp[a] = c
                    break
        self._comp = tuple(comp)
        self._hash = hash((self.elements, self._down))
        self._frame_cache = None

    @staticmethod
    def _extreme(candidates: int, cones: Sequence[int], na: str, nb: str, what: str) -> int:
        """The unique m among `candidates` whose cone contains all of them."""
        mask = candidates
        while mask:
            low = mask & -mask
            m = low.bit_length() - 1
            if candidates & ~cones[m] == 0:
                return m
            mask ^= low
        raise NotALattice(f"elements {na!r} and {nb!r} have no {what}")

    # -- basic queries -------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.elements)

    @property
    def bottom(self) -> str:
        return self.elements[self._bottom]

    @property
    def top(self) -> str:
        return self.elements[self._top]

    def index(self, name: str) -> int:
        try:
            return self._idx[name]
        except KeyError:
            raise MalformedDocument(f"unknown lattice element {name!r}") from None

    def leq(self, a: str, b: str) -> bool:
        return bool(self._down[self.index(b)] >> self.index(a) & 1)

    def meet(self, a: str, b: str) -> str:
        return self.elements[self._meet[self.index(a)][self.index(b)]]

    def join(self, a: str, b: str) -> str:
        return self.elements[self._join[self.index(a)][self.index(b)]]

    def join_all(self, items: Iterable[str]) -> str:
        acc = self._bottom
        for x in items:
            acc = self._join[acc][self.index(x)]
        return self.elements[acc]

    # -- complements ----------------------------------------------------------

    def complement(self, a: str) -> str:
        c = self._comp[self.index(a)]
        if c is None:
            raise NotComplemented(f"{a!r} is not complemented in this lattice")
        return self.elements[c]

    def is_complemented(self, a: str) -> bool:
        return self._comp[self.index(a)] is not None

    def complemented_elements(self) -> Tuple[str, ...]:
        return tuple(e for e, c in zip(self.elements, self._comp) if c is not None)

    def is_boolean(self) -> bool:
        return all(c is not None for c in self._comp)

    def atoms(self) -> Tuple[str, ...]:
        out = []
        for i, e in enumerate(self.elements):
            if i != self._bottom and self._down[i] == (1 << i) | (1 << self._bottom):
                out.append(e)
        return tuple(out)

    def congruence_frame(self):
        """The frame of all congruences; cached per lattice."""
        if self._frame_cache is None:
            from .congruence import enumerate_congruences
            self._frame_cache = enumerate_congruences(self)
        return self._frame_cache

    # -- value semantics -------------------------------------------------------

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        return (isinstance(other, FiniteLattice)
                and self.elements == other.elements
                and self._down == other._down)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteLattice({len(self.elements)} elements, bottom={self.bottom!r}, top={self.top!r})"


def check_same_carrier(a: FiniteLattice, b: FiniteLattice, message: str) -> None:
    """Raise CarrierMismatch with the message unless a and b are equal."""
    if a is not b and a != b:
        raise CarrierMismatch(message)


# -- factories ----------------------------------------------------------------

def subset_name(members: Iterable[str], atom_order: Sequence[str]) -> str:
    """Canonical name of a subset: "0" for empty, "1" for everything,
    the bare atom for singletons and "{a,b}" otherwise."""
    members = set(members)
    if not members:
        return "0"
    if members == set(atom_order):
        return "1"
    ordered = [a for a in atom_order if a in members]
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
    k = len(atoms)
    subsets = []
    for mask in range(1 << k):
        subsets.append(frozenset(atoms[i] for i in range(k) if mask >> i & 1))
    names = [subset_name(s, atoms) for s in subsets]
    pairs = []
    for i, s in enumerate(subsets):
        for j, t in enumerate(subsets):
            if s <= t:
                pairs.append((names[i], names[j]))
    return FiniteLattice(names, pairs)


def lattice_from_order(elements: Sequence[str], pairs: Iterable[Tuple[str, str]]) -> FiniteLattice:
    """Build from any generating set of order pairs; the reflexive-transitive
    closure is applied here."""
    elements = tuple(elements)
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
            mask = down[b]
            acc = mask
            while mask:
                low = mask & -mask
                acc |= down[low.bit_length() - 1]
                mask ^= low
            if acc != down[b]:
                down[b] = acc
                changed = True
    closed = []
    for b in range(n):
        mask = down[b]
        while mask:
            low = mask & -mask
            closed.append((elements[low.bit_length() - 1], elements[b]))
            mask ^= low
    return FiniteLattice(elements, closed)


def chain_lattice(names: Sequence[str]) -> FiniteLattice:
    return lattice_from_order(names, [(names[i], names[i + 1]) for i in range(len(names) - 1)])


def build_lattice(doc) -> FiniteLattice:
    """Build a lattice from a document: {"kind": "powerset", "atoms": [...]}
    or {"kind": "poset", "elements": [...], "leq": [[a, b], ...]}."""
    if not isinstance(doc, dict):
        raise MalformedDocument("lattice document must be a JSON object")
    kind = doc.get("kind")
    if kind == "powerset":
        atoms = doc.get("atoms")
        if not isinstance(atoms, list) or not all(isinstance(a, str) for a in atoms):
            raise MalformedDocument('"atoms" must be a list of strings')
        return powerset_lattice(atoms)
    if kind == "poset":
        elements = doc.get("elements")
        pairs = doc.get("leq")
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise MalformedDocument('"elements" must be a list of strings')
        if not isinstance(pairs, list):
            raise MalformedDocument('"leq" must be a list of [a, b] pairs')
        for p in pairs:
            if not (isinstance(p, (list, tuple)) and len(p) == 2
                    and isinstance(p[0], str) and isinstance(p[1], str)):
                raise MalformedDocument(f"bad order pair: {p!r}")
        if len(elements) > SOFT_SIZE_LIMIT:
            raise SizeLimitExceeded(
                f"{len(elements)} elements exceeds the {SOFT_SIZE_LIMIT}-element limit")
        return lattice_from_order(elements, pairs)
    raise MalformedDocument(f'unknown lattice kind {kind!r} (expected "powerset" or "poset")')
