"""Congruences on a finite lattice and the congruence frame C(L), which
also answers for its order-dual S(L), the coframe of sublocales.

A congruence is an equivalence relation compatible with meets (C1) and
joins (C2); at finite scale the countable-join axiom reduces to its binary
form.

Congruences come from Birkhoff duality (Birkhoff, "Rings of sets", Duke
Math. J. 3, 1937): for a finite distributive L, each subset Q of the
join-irreducibles J(L) gives the congruence x ~ y iff J(x) and J(y) agree
on Q, and every congruence arises from exactly one Q, its keep-mask.  A
``Congruence`` is identified by its keep-mask: equality and hashing read
it, and the partition (``block_of``, the names) is derived from it on
first read.  So C(L) is the powerset of J(L), built directly with no
closure computation.

One object, ``CongruenceFrame(lattice)``, holds both orders.  It lists
C(L) in frame order, and C(L)'s lattice operations are those of its
carrier ``as_lattice()``, by partition name.  S(L) needs only the
lattice: a sublocale is its keep-mask, the frame's ``meet`` is ``&``, its
``join`` ``|`` and its ``complement`` ``~``, and each result is built
from the lattice and its mask.  Every operand enters through one gate,
``CongruenceFrame.keep_of``, which rejects a sublocale of another
lattice.  There the open sublocale o(a) is the quotient by delta(a) =
{(x,y) | x/\\a = y/\\a} (keep-mask J(a)) and the closed sublocale c(a) the
quotient by nabla(a) = {(x,y) | x\\/a = y\\/a} (keep-mask J(L) minus J(a)).
A partition enters only through ``Congruence.from_blocks``, which reads the
keep-mask off it and rejects a partition that mask does not reproduce.

References point one way, from what is built to what it is built over:
a measure holds its frame, a frame its lattice, and neither the lattice
nor the frame holds anything built over it.  The frame keeps only its
carrier and point bits, which every integral reads.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import MalformedDocument, SizeLimitExceeded
from .lattice import SOFT_SIZE_LIMIT, FiniteLattice

#: Enumeration guard: at most this many congruences, i.e. |J(L)| <= 8.  It
#: is checked before anything is built.
CONGRUENCE_LIMIT = 256


class Congruence:
    """A lattice congruence, identified by its keep-mask over J(L).

    Bit k of ``keep`` is set iff the k-th join-irreducible j is not
    collapsed onto its lower cover, and x ~ y iff J(x) & keep = J(y) & keep.
    ``block_of`` is derived from the mask on first read, with blocks
    numbered in order of first occurrence along the carrier's element
    order.
    """

    __slots__ = ("lattice", "keep", "_block_of")

    def __init__(self, lattice: FiniteLattice, keep: int):
        self.lattice = lattice
        self.keep = keep
        self._block_of: Optional[Tuple[int, ...]] = None

    @property
    def block_of(self) -> Tuple[int, ...]:
        if self._block_of is None:
            self._block_of = _canonical([m & self.keep for m in self.lattice._jmask])
        return self._block_of

    @classmethod
    def from_blocks(cls, lattice: FiniteLattice, blocks: Iterable[Iterable[str]]) -> "Congruence":
        """The congruence with the given blocks.  Its keep-mask is read off
        the partition (j is kept iff j and its lower cover lie in different
        blocks); a partition that this mask does not reproduce is not a
        congruence."""
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
        # the lower cover of the k-th j has the mask J(j) minus bit k
        jmask = lattice._jmask
        block_at = dict(zip(jmask, block_of))
        keep = sum(1 << k for k, j in enumerate(lattice._jirr)
                   if block_of[j] != block_at[jmask[j] ^ (1 << k)])
        theta, given = cls(lattice, keep), _canonical(block_of)
        if theta.block_of != given:
            raise MalformedDocument(
                f"{_partition_name(lattice, given)} is not a congruence of this lattice")
        return theta

    @property
    def n_blocks(self) -> int:
        return max(self.block_of) + 1

    def blocks(self) -> Tuple[Tuple[str, ...], ...]:
        return _blocks(self.lattice, self.block_of)

    def partition_name(self) -> str:
        return _partition_name(self.lattice, self.block_of)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Congruence)
                and self.keep == other.keep
                and (self.lattice is other.lattice or self.lattice == other.lattice))

    def __hash__(self) -> int:
        return hash(self.keep)

    def __repr__(self) -> str:
        return f"Congruence({self.partition_name()})"


def _canonical(labels: Sequence[int]) -> Tuple[int, ...]:
    """Block labels renumbered in order of first occurrence."""
    relabel: Dict[int, int] = {}
    return tuple(relabel.setdefault(b, len(relabel)) for b in labels)


def _blocks(lattice: FiniteLattice, block_of: Sequence[int]) -> Tuple[Tuple[str, ...], ...]:
    out: List[List[str]] = [[] for _ in range(max(block_of) + 1)]
    for i, b in enumerate(block_of):
        out[b].append(lattice.elements[i])
    return tuple(tuple(block) for block in out)


def _partition_name(lattice: FiniteLattice, block_of: Sequence[int]) -> str:
    return "{" + "|".join(",".join(b) for b in _blocks(lattice, block_of)) + "}"


# -- the congruence frame -------------------------------------------------------


class CongruenceFrame:
    """The frame C(L) of all congruences, ordered by inclusion, which also
    answers for its order-dual S(L), the coframe of sublocales.

    ``CongruenceFrame(lattice)`` lists C(L), one congruence per subset Q
    of J(L), in frame order: most blocks first, then by canonical block
    labels.  The frame numbers C(L) only through its carrier: C(L)'s
    lattice operations are those of ``as_lattice``, the Boolean
    FiniteLattice over canonical partition names, the carrier of functions
    and simple functions over C(L).  Each bit of that carrier is an atom of
    C(L), the congruence collapsing exactly one j; ``point_bits()`` gives,
    per bit, the bit of that j in the keep-masks, so a function's value at
    a carrier bit is its value at the point j of J(L); ``element_of`` and
    ``congruence_of_element`` go between a congruence and its carrier
    element.

    The Boolean operations defined here are those of S(L): a sublocale is
    identified with its congruence, and S <= T holds iff theta_T is
    contained in theta_S, i.e. iff the keep-mask of S is contained in that
    of T.  On keep-masks the meet is ``&``, the join ``|`` and the
    complement ``~``.  Each operation reads its operands' masks through
    ``keep_of`` and builds its result from the lattice and the mask
    (``_sublocale``).  The whole lattice L (``top``) is the quotient by
    equality and the void sublocale (``bottom``) the quotient by the
    all-pairs relation.  No pair tables are held: the measure sweep walks
    the keep-masks in place.
    """

    __slots__ = ("lattice", "congruences", "_point_bits", "_carrier")

    def __init__(self, lattice: FiniteLattice):
        if lattice.size > SOFT_SIZE_LIMIT:
            raise SizeLimitExceeded(
                f"congruence enumeration limited to {SOFT_SIZE_LIMIT}-element lattices")
        if 1 << len(lattice._jirr) > CONGRUENCE_LIMIT:
            raise SizeLimitExceeded(
                f"more than {CONGRUENCE_LIMIT} congruences; beyond desk scale")
        found = [Congruence(lattice, q) for q in range(1 << len(lattice._jirr))]
        found.sort(key=lambda c: (-c.n_blocks, c.block_of))
        self.lattice = lattice
        self.congruences: Tuple[Congruence, ...] = tuple(found)
        self._point_bits: Optional[Tuple[int, ...]] = None
        self._carrier: Optional[FiniteLattice] = None

    @property
    def size(self) -> int:
        return len(self.congruences)

    def as_lattice(self) -> FiniteLattice:
        """C(L) as a carrier: the Boolean lattice over the partition names in
        frame order, where a congruence's mask is the set of
        join-irreducibles it collapses (theta <= phi iff theta collapses no
        more than phi).  Built on first use; two threads racing here may
        each build it, and the copies compare equal."""
        if self._carrier is None:
            self._carrier = FiniteLattice._from_masks(
                [c.partition_name() for c in self.congruences],
                [self.lattice._full ^ c.keep for c in self.congruences])
        return self._carrier

    def point_bits(self) -> Tuple[int, ...]:
        """Per bit of the carrier, in bit order, the bit k of the one j that
        bit's congruence collapses, so 1 << k is the keep-mask of the S(L)
        atom keeping j alone: read off the carrier's own numbering, built
        on first use."""
        if self._point_bits is None:
            self._point_bits = tuple((self.lattice._full ^ self.congruences[i].keep).bit_length() - 1
                                     for i in self.as_lattice()._jirr)
        return self._point_bits

    def congruence_of_element(self, name: str) -> Congruence:
        return self.congruences[self.as_lattice().index(name)]

    def element_of(self, theta: Congruence) -> str:
        """The carrier element of theta, the inverse of
        ``congruence_of_element``."""
        collapsed = self.lattice._full ^ self.keep_of(theta)
        return self._element_collapsing(collapsed)

    def _element_collapsing(self, collapsed: int) -> str:
        """The carrier element of the congruence that collapses the points
        of the J-mask `collapsed`: carrier bit i is set iff it holds the
        point ``point_bits()[i]``, O(|J|)."""
        mask = 0
        for i, k in enumerate(self.point_bits()):
            if collapsed >> k & 1:
                mask |= 1 << i
        return self.as_lattice()._at[mask]

    def labels_of(self, theta: Congruence) -> Dict[str, Tuple[str, ...]]:
        """Which nabla(a) / delta(a) this congruence equals, if any: J is
        injective, so only the a with J(a) = J(L) minus keep, or = keep."""
        keep = self.keep_of(theta)
        at = self.lattice._at
        found = {"nabla": at.get(self.lattice._full ^ keep), "delta": at.get(keep)}
        return {label: () if a is None else (a,) for label, a in found.items()}

    def view(self) -> "CongruenceFrame":
        """The frame itself, which answers for S(L); kept for callers written
        against a separate S(L) object (``perfbench/common.py``)."""
        return self

    def __repr__(self) -> str:
        return f"CongruenceFrame({self.size} congruences on {self.lattice!r})"

    # -- S(L) on keep-masks -----------------------------------------------------

    def keep_of(self, s: Congruence) -> int:
        """The keep-mask of a sublocale of this lattice: the one gate every
        operand of S(L) passes."""
        if s.lattice is not self.lattice and s.lattice != self.lattice:
            raise MalformedDocument(
                f"{s.partition_name()} is not a congruence of this lattice")
        return s.keep

    def _sublocale(self, keep: int) -> Congruence:
        """The sublocale with this keep-mask, built from the lattice alone:
        the one place a keep-mask becomes a sublocale."""
        return Congruence(self.lattice, keep)

    @property
    def top(self) -> Congruence:
        """1_S(L): the whole lattice (quotient by equality)."""
        return self._sublocale(self.lattice._full)

    @property
    def bottom(self) -> Congruence:
        """0_S(L): the void sublocale (quotient by all pairs)."""
        return self._sublocale(0)

    def leq(self, s: Congruence, t: Congruence) -> bool:
        return self.keep_of(s) & ~self.keep_of(t) == 0

    def meet(self, s: Congruence, t: Congruence) -> Congruence:
        return self._sublocale(self.keep_of(s) & self.keep_of(t))

    def join(self, s: Congruence, t: Congruence) -> Congruence:
        return self._sublocale(self.keep_of(s) | self.keep_of(t))

    def complement(self, s: Congruence) -> Congruence:
        return self._sublocale(self.lattice._full ^ self.keep_of(s))

    def open_sublocale(self, a: str) -> Congruence:
        """o(a), the quotient by delta(a): it keeps J(a)."""
        return self._sublocale(self.lattice.jmask(a))

    def closed_sublocale(self, a: str) -> Congruence:
        """c(a), the quotient by nabla(a): it keeps J(L) minus J(a)."""
        return self._sublocale(self.lattice._full ^ self.lattice.jmask(a))

    def atoms(self) -> Tuple[Congruence, ...]:
        """Minimal nonvoid sublocales, the single-bit keep-masks, in frame
        order: a measure is given by its values on them
        (``measure.Measure``)."""
        return tuple(s for s in self.congruences if s.keep and not s.keep & (s.keep - 1))

    # -- naming ---------------------------------------------------------------

    def ref_name(self, s: Congruence) -> str:
        keep = self.keep_of(s)
        if keep == self.lattice._full:
            return "L"
        if keep == 0:
            return "void"
        labels = self.labels_of(s)
        if labels["delta"]:
            return f"open:{labels['delta'][0]}"
        if labels["nabla"]:
            return f"closed:{labels['nabla'][0]}"
        return "blocks:" + "|".join(",".join(b) for b in s.blocks())

    def resolve_ref(self, ref) -> Congruence:
        # {"blocks": [[...], ...]}, a list of lists of element names, and nothing else
        blocks = ref.get("blocks") if isinstance(ref, dict) and len(ref) == 1 else None
        if isinstance(blocks, list) and all(
                isinstance(b, list) and all(isinstance(e, str) for e in b) for b in blocks):
            return Congruence.from_blocks(self.lattice, blocks)
        if not isinstance(ref, str):
            raise MalformedDocument(f"bad sublocale reference: {ref!r}")
        if ref == "L":
            return self.top
        if ref == "void":
            return self.bottom
        if ref.startswith("open:"):
            return self.open_sublocale(ref[5:])
        if ref.startswith("closed:"):
            return self.closed_sublocale(ref[7:])
        if ref.startswith("blocks:"):
            blocks = [b.split(",") for b in ref[7:].split("|")]
            return Congruence.from_blocks(self.lattice, blocks)
        raise MalformedDocument(f"unknown sublocale reference {ref!r}")
