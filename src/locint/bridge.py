"""Finite classical measurable spaces as an independent oracle.

A finite set with a sigma-algebra of subsets and an additive weight map is
the classical counterpart of a Boolean carrier: the algebra, ordered by
inclusion, is a finite Boolean lattice; a rational-valued simple function
corresponds one-to-one with a canonical simple function over the
congruence frame whose term elements are the closed congruences of its
level sets; and the classical integral (computed here purely with set
arithmetic) must agree exactly, classification included, with the
pointfree integral against the extension of the weight map to all
sublocales (open sublocales keep their classical value).

Every space goes through one checked constructor, which takes the
algebra and one weight per atom, keyed by the atom's name.  By Birkhoff a
finite Boolean algebra of sets is the 2^k unions of its k atoms, so it is
checked in O(|A| * k) on bitmasks; the sweep over all pairs of sets runs
only to name the first failure.  lambda is the sum of the atom weights
below each member, so it is additive by construction.  The atoms found are
the space's atoms, and its lattice and congruence frame are built from
them.  Every weight is stored as ``check_measure_value`` coerces it, an
exact rational or +inf.  lambda and a classical function's values are
read-only views."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Dict, FrozenSet, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .congruence import CongruenceFrame
from .errors import ConsistencyError, MalformedDocument, SizeLimitExceeded
from .integrate import NOT_INTEGRABLE, SummabilityReport, classify, report_value, summability
from .lattice import SOFT_SIZE_LIMIT, FiniteLattice, subset_name
from .measure import Measure, check_measure_value, reject_non_atoms, subset_sums
from .rationals import ZERO, ExtValue, ext_add, ext_scale, format_extended, parse_rational
from .simple import SimpleFunction

#: How many congruence frames (and so lattices) spaces over equal algebras share.
SPACE_LATTICE_CACHE = 64


class FiniteMeasurableSpace:
    """A finite point set, a sigma-algebra of subsets and an additive map
    on it.  At this scale countable unions are finite unions, so the
    algebra is just a Boolean subalgebra of the powerset.

    ``lam`` is a read-only view of lambda.  ``_names`` holds the name of
    each member (``name_of``) in algebra order, no two alike.  ``_below``
    maps each member to the set of atoms below it as a bitmask, bit k
    standing for the atom with the k-th first point."""

    __slots__ = ("points", "algebra", "lam", "_names", "_atoms", "_below", "_frame", "_measure")

    def __init__(self, points: Sequence[str],
                 algebra: Iterable[FrozenSet[str]],
                 atom_weights: Mapping[str, ExtValue]):
        """Check the algebra (``_atoms_below``), that no two members share
        a name, then the weights, keyed by atom name: a weight for every
        atom, in sorted order, no key that names no atom, and every weight
        in [0, inf] (stored as ``check_measure_value`` coerces it).
        lambda(s) is the sum of the weights of the atoms below s, so it is
        additive by construction."""
        self.points = tuple(points)
        sets = {frozenset(s) for s in algebra}
        atoms, below = _atoms_below(self.points, sets)
        order = {p: i for i, p in enumerate(self.points)}
        self.algebra = tuple(sorted(sets, key=lambda s: (len(s), sorted(order[p] for p in s))))
        self._names = tuple(subset_name(s, self.points) for s in self.algebra)
        if len(set(self._names)) < len(self._names):
            shared = next(n for i, n in enumerate(self._names) if n in self._names[:i])
            raise MalformedDocument(f"two members of the algebra are both named {shared!r}")
        self._atoms = tuple(sorted(atoms, key=sorted))
        self._below = below
        names = [self.name_of(a) for a in self._atoms]
        for name in names:
            if name not in atom_weights:
                raise MalformedDocument(f"no weight for atom {name!r}")
        reject_non_atoms(atom_weights, names)
        weights = {a: check_measure_value(atom_weights[name])
                   for a, name in zip(self._atoms, names)}
        sums = subset_sums([weights[a] for a in atoms])
        self.lam: Mapping[FrozenSet[str], ExtValue] = MappingProxyType(
            {s: sums[below[s]] for s in self.algebra})
        self._frame: Optional[CongruenceFrame] = None
        self._measure = None

    @classmethod
    def powerset(cls, points: Sequence[str],
                 point_weights: Mapping[str, ExtValue]) -> "FiniteMeasurableSpace":
        """The full powerset algebra, whose atoms are the singletons, with
        the weight of each point; the size cap is checked first."""
        points = tuple(points)
        _check_size(1 << len(points), f"a powerset over {len(points)} points")
        missing = [p for p in points if p not in point_weights]
        if missing:
            raise MalformedDocument(f"no weight for point(s) {missing!r}")
        reject_non_atoms(point_weights, points)
        subsets = [frozenset()]  # subsets[m] holds points[i] for each bit i of m
        for p in points:
            single = frozenset((p,))
            subsets += [s | single for s in subsets]
        # keyed by atom name: the singleton of a lone point is the whole set, "1"
        return cls(points, subsets, {subset_name((p,), points): point_weights[p] for p in points})

    def name_of(self, subset: FrozenSet[str]) -> str:
        return subset_name(subset, self.points)

    def subset_of_name(self, name: str) -> FrozenSet[str]:
        if name not in self._names:
            raise MalformedDocument(f"{name!r} is not a member of the algebra")
        return self.algebra[self._names.index(name)]

    def atoms(self) -> Tuple[FrozenSet[str], ...]:
        """The atoms found by the algebra check, ordered by their sorted
        point names."""
        return self._atoms

    def lattice(self) -> FiniteLattice:
        """The algebra as a lattice under inclusion, built from the atom
        masks of its members; spaces over equal algebras share one."""
        return self.frame().lattice

    def frame(self) -> CongruenceFrame:
        """The congruence frame of the algebra, which also answers for S(A),
        filled once from the frames that spaces over equal algebras share."""
        if self._frame is None:
            self._frame = _space_frame(self._names, tuple(map(self._below.get, self.algebra)))
        return self._frame

    view = frame  # the name ``perfbench/algebra.py`` builds the frame through


@lru_cache(maxsize=SPACE_LATTICE_CACHE)
def _space_frame(names: Tuple[str, ...], masks: Tuple[int, ...]) -> CongruenceFrame:
    return CongruenceFrame(FiniteLattice._from_masks(names, masks))


def _check_size(n_sets: int, what: str) -> None:
    """Spaces have at most SOFT_SIZE_LIMIT measurable sets (a powerset at
    most 6 points, like its lattice); checked before any subset is built
    and before any sweep over pairs of sets."""
    if n_sets > SOFT_SIZE_LIMIT:
        raise SizeLimitExceeded(f"{what} exceeds the {SOFT_SIZE_LIMIT}-set limit")


def _atoms_below(points: Tuple[str, ...], sets
                 ) -> Tuple[List[FrozenSet[str]], Dict[FrozenSet[str], int]]:
    """The atoms of the algebra `sets`, ordered by their first point, and
    for each member the atoms below it as a bitmask (bit k: the k-th atom).

    On bitmasks over the points (Birkhoff): the atom of a point is the meet
    of the members that contain it, and the family is a Boolean algebra iff
    these atoms partition the points and the members are exactly their 2^k
    unions, O(|sets| * k).  Only a family that fails it goes through
    ``_check_algebra``, the sweep over all pairs, to name the first
    failure."""
    _check_size(len(sets), f"an algebra of {len(sets)} sets")
    if len(set(points)) != len(points):
        raise MalformedDocument("duplicate point names")
    found = _partition(points, sets)
    if found is None:
        _check_algebra(points, sets)
        raise ConsistencyError("the atom check and the closure sweep disagree")
    return found


def _partition(points: Tuple[str, ...], sets
               ) -> Optional[Tuple[List[FrozenSet[str]], Dict[FrozenSet[str], int]]]:
    """``_atoms_below`` if the sets are the unions of a partition of the
    points, else None; bit i of a point mask stands for points[i]."""
    universe = frozenset(points)
    if not all(s <= universe for s in sets):
        return None
    bit = {p: 1 << i for i, p in enumerate(points)}
    member = {sum(map(bit.__getitem__, s)): s for s in sets}
    full = (1 << len(points)) - 1
    atoms = []
    covered = 0
    while covered != full:
        point = ~covered & (covered + 1)  # the first point in no atom yet
        atom = full
        for m in member:
            if m & point:
                atom &= m
        if atom & covered:
            return None
        atoms.append(atom)
        covered |= atom
    if len(member) != 1 << len(atoms):  # also bounds the enumeration below
        return None
    unions = [0]  # unions[bits]: the union of the atoms in bits
    for a in atoms:
        unions += [u | a for u in unions]
    if member.keys() != set(unions):
        return None
    return [member[a] for a in atoms], {member[u]: bits for bits, u in enumerate(unions)}


def _check_algebra(points: Tuple[str, ...], sets) -> None:
    """Distinct points; the sets are subsets of them, contain the empty and
    the whole set and are closed under complement and union.  The sets are
    visited in a fixed order, so the first failure named does not depend
    on string hashing."""
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


class ClassicalSimpleFunction:
    """A rational-valued function on the points with measurable level sets,
    which the constructor builds once (``level_sets``)."""

    __slots__ = ("space", "values", "_levels")

    def __init__(self, space: FiniteMeasurableSpace, values: Mapping[str, Fraction]):
        self.space = space
        missing = [p for p in space.points if p not in values]
        if missing:
            raise MalformedDocument(f"no value for point(s) {missing!r}")
        extra = [p for p in values if p not in space.points]
        if extra:
            raise MalformedDocument(f"values for unknown point(s) {extra!r}")
        self.values: Mapping[str, Fraction] = MappingProxyType(
            {p: parse_rational(values[p]) for p in space.points})
        by_value: Dict[Fraction, set] = {}
        for p, v in self.values.items():
            by_value.setdefault(v, set()).add(p)
        self._levels = tuple((v, frozenset(s)) for v, s in sorted(by_value.items()))
        for _, level in self._levels:
            if level not in space._below:
                raise MalformedDocument(
                    f"level set {space.name_of(level)!r} is not in the algebra")

    def level_sets(self) -> Tuple[Tuple[Fraction, FrozenSet[str]], ...]:
        """(value, the points taking it) by ascending value."""
        return self._levels

    def __repr__(self) -> str:
        return "ClassicalSimpleFunction(" + ", ".join(
            f"{p}={v}" for p, v in self.values.items()) + ")"


def classical_summability(f: ClassicalSimpleFunction,
                          over: Optional[FrozenSet[str]] = None) -> SummabilityReport:
    """sum_r r * lambda(level_r /\\ A), split into its positive and negative
    parts and classified as on the pointfree side.  Pure set arithmetic."""
    space = f.space
    if over is None:
        over = frozenset(space.points)
    if over not in space._below:
        raise MalformedDocument(
            f"{space.name_of(over)!r} is not a member of the algebra")
    pos: ExtValue = ZERO
    neg: ExtValue = ZERO
    for r, level in f.level_sets():
        weight = space.lam[level & over]
        if r > 0:
            pos = ext_add(pos, ext_scale(r, weight))
        elif r < 0:
            neg = ext_add(neg, ext_scale(-r, weight))
    return classify(pos, neg)


def classical_integral(f: ClassicalSimpleFunction,
                       over: Optional[FrozenSet[str]] = None
                       ) -> Tuple[ExtValue, SummabilityReport]:
    """The classical integral with the same integrability guard as the
    pointfree side."""
    report = classical_summability(f, over)
    return report_value(report), report


def to_localic(f: ClassicalSimpleFunction) -> SimpleFunction:
    """The pointfree counterpart: sum_i r_i * chi(nabla(A_i)) over the
    congruence frame of the algebra, with A_i the level sets.  nabla(A)
    collapses exactly the points J(A), so its carrier element is read off
    that mask."""
    space = f.space
    frame = space.frame()
    jmask = frame.lattice.jmask
    return SimpleFunction(frame.as_lattice(), [
        (r, frame._element_collapsing(jmask(space.name_of(level))))
        for r, level in f.level_sets()])


def extend_measure(space: FiniteMeasurableSpace) -> Measure:
    """The measure on S(A) determined by lambda: every congruence of the
    finite Boolean algebra A is nabla(B) for a unique B, and the quotient
    by nabla(B) is the open sublocale of the complement, so it gets
    lambda(X minus B), the sum of lambda over the atoms it keeps.  Built
    once per space, on first use."""
    if space._measure is None:
        space._measure = Measure(
            space.frame(), [space.lam[space.algebra[j]] for j in space.lattice()._jirr])
    return space._measure


class BridgeReport(NamedTuple):
    """Both integrals side by side, with their classifications."""

    classical_value: Optional[ExtValue]
    localic_value: Optional[ExtValue]
    classical: SummabilityReport
    localic: SummabilityReport


def bridge_check(space: FiniteMeasurableSpace, f: ClassicalSimpleFunction,
                 over: Optional[FrozenSet[str]] = None) -> BridgeReport:
    """Classical integral versus pointfree integral of the counterpart over
    the matching open sublocale; exact equality (both parts and the
    classification) is asserted."""
    if over is None:
        over = frozenset(space.points)
    c_report = classical_summability(f, over)
    g = to_localic(f)
    mu = extend_measure(space)
    l_report = summability(g, mu, mu.frame.open_sublocale(space.name_of(over)))
    report = BridgeReport(_value(c_report), _value(l_report), c_report, l_report)
    if c_report != l_report:
        raise ConsistencyError(
            "bridge mismatch: classical "
            f"{_fmt(report.classical_value)}/{c_report.classification} vs pointfree "
            f"{_fmt(report.localic_value)}/{l_report.classification}")
    return report


def _value(report: SummabilityReport) -> Optional[ExtValue]:
    return None if report.classification == NOT_INTEGRABLE else report_value(report)


def _fmt(v: Optional[ExtValue]) -> str:
    return "undefined" if v is None else format_extended(v)
