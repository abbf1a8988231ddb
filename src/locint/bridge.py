"""Finite classical measurable spaces as an independent oracle.

A finite set with a sigma-algebra of subsets and an additive weight map is
the classical counterpart of a Boolean carrier: the algebra, ordered by
inclusion, is a finite Boolean lattice; a rational-valued simple function
corresponds one-to-one with a canonical simple function over the
congruence frame whose term elements are the closed congruences of its
level sets; and the classical integral (computed here purely with set
arithmetic) must agree exactly, classification included, with the
pointfree integral against the extension of the weight map to all
sublocales (open sublocales keep their classical value)."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .congruence import SublocaleView
from .errors import AxiomViolation, ConsistencyError, MalformedDocument, SizeLimitExceeded
from .integrate import NOT_INTEGRABLE, SummabilityReport, classify, report_value, summability
from .lattice import SOFT_SIZE_LIMIT, FiniteLattice, subset_name
from .measure import Measure, additive_measure, check_measure_value, subset_sums
from .rationals import ExtValue, ext_add, ext_scale, format_extended, parse_rational
from .simple import SimpleFunction


class FiniteMeasurableSpace:
    """A finite point set, a sigma-algebra of subsets and an additive map
    on it.  At this scale countable unions are finite unions, so the
    algebra is just a Boolean subalgebra of the powerset."""

    __slots__ = ("points", "algebra", "lam", "_lattice", "_atoms")

    def __init__(self, points: Sequence[str],
                 algebra: Iterable[FrozenSet[str]],
                 lam: Mapping[FrozenSet[str], ExtValue],
                 _additive: bool = False):
        """Validate the algebra and lambda.  The builders below pass
        `_additive` for a lambda they summed from range-checked weights
        over an algebra they already checked; such a lambda is additive
        by construction and skips every check."""
        self.points = tuple(points)
        sets = {frozenset(s) for s in algebra}
        if not _additive:
            _check_algebra(self.points, sets)
        order = {p: i for i, p in enumerate(self.points)}
        self.algebra = tuple(sorted(sets, key=lambda s: (len(s), sorted(order[p] for p in s))))
        self.lam: Dict[FrozenSet[str], ExtValue] = dict(lam)
        if not _additive:
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
        self._lattice = None
        self._atoms = None

    @classmethod
    def powerset(cls, points: Sequence[str],
                 point_weights: Mapping[str, ExtValue]) -> "FiniteMeasurableSpace":
        """Full powerset algebra with lambda extended additively from the
        singleton weights."""
        points = tuple(points)
        _check_size(1 << len(points), f"a powerset over {len(points)} points")
        for p in points:
            if p not in point_weights:
                raise MalformedDocument(f"no weight for point {p!r}")
        weights = [point_weights[p] for p in points]
        for w in weights:
            check_measure_value(w)
        if len(set(points)) != len(points):
            raise MalformedDocument("duplicate point names")
        subsets = [frozenset(p for i, p in enumerate(points) if mask >> i & 1)
                   for mask in range(1 << len(points))]
        return cls(points, subsets, dict(zip(subsets, subset_sums(weights))), _additive=True)

    @classmethod
    def from_atom_weights(cls, points: Sequence[str],
                          algebra: Iterable[FrozenSet[str]],
                          atom_weights: Mapping[FrozenSet[str], ExtValue]) -> "FiniteMeasurableSpace":
        """lambda extended additively from weights on the atoms of the
        algebra, which is checked first: a closed algebra has exactly
        2**|atoms| members, so the table of sums is no larger than it."""
        points = tuple(points)
        sets = {frozenset(s) for s in algebra}
        _check_algebra(points, sets)
        atoms = _atoms_of(sets)
        for a in atoms:
            if a not in atom_weights:
                raise MalformedDocument(f"no weight for atom {sorted(a)!r}")
        for a in atoms:
            check_measure_value(atom_weights[a])
        sums = subset_sums([atom_weights[a] for a in atoms])
        lam = {s: sums[sum(1 << k for k, a in enumerate(atoms) if a <= s)] for s in sets}
        return cls(points, sets, lam, _additive=True)

    def name_of(self, subset: FrozenSet[str]) -> str:
        return subset_name(subset, self.points)

    def subset_of_name(self, name: str) -> FrozenSet[str]:
        for s in self.algebra:
            if self.name_of(s) == name:
                return s
        raise MalformedDocument(f"{name!r} is not a member of the algebra")

    def atoms(self) -> Tuple[FrozenSet[str], ...]:
        if self._atoms is None:
            self._atoms = _atoms_of(set(self.algebra))
        return self._atoms

    def lattice(self) -> FiniteLattice:
        """The algebra as a lattice under inclusion."""
        if self._lattice is None:
            names = [self.name_of(s) for s in self.algebra]
            pairs = []
            for i, s in enumerate(self.algebra):
                for j, t in enumerate(self.algebra):
                    if s <= t:
                        pairs.append((names[i], names[j]))
            self._lattice = FiniteLattice(names, pairs)
        return self._lattice

    def view(self) -> SublocaleView:
        return self.lattice().congruence_frame().view()


def _check_size(n_sets: int, what: str) -> None:
    """Spaces have at most SOFT_SIZE_LIMIT measurable sets (a powerset at
    most 6 points, like its lattice); checked before any subset is built
    and before any sweep over pairs of sets."""
    if n_sets > SOFT_SIZE_LIMIT:
        raise SizeLimitExceeded(f"{what} exceeds the {SOFT_SIZE_LIMIT}-set limit")


def _check_algebra(points: Tuple[str, ...], sets) -> None:
    """Distinct points; the sets are subsets of them, contain the empty and
    the whole set and are closed under complement and union.  The sets are
    visited in a fixed order, so the first failure named does not depend
    on string hashing."""
    _check_size(len(sets), f"an algebra of {len(sets)} sets")
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


def _atoms_of(sets) -> Tuple[FrozenSet[str], ...]:
    _check_size(len(sets), f"an algebra of {len(sets)} sets")
    nonempty = [s for s in sets if s]
    atoms = [s for s in nonempty if not any(t < s for t in nonempty)]
    return tuple(sorted(atoms, key=lambda s: sorted(s)))


class ClassicalSimpleFunction:
    """A rational-valued function on the points with measurable level sets."""

    __slots__ = ("space", "values")

    def __init__(self, space: FiniteMeasurableSpace, values: Mapping[str, Fraction]):
        self.space = space
        missing = [p for p in space.points if p not in values]
        if missing:
            raise MalformedDocument(f"no value for point(s) {missing!r}")
        extra = [p for p in values if p not in space.points]
        if extra:
            raise MalformedDocument(f"values for unknown point(s) {extra!r}")
        self.values = {p: parse_rational(values[p]) for p in space.points}
        algebra = set(space.algebra)
        for _, level in self.level_sets():
            if level not in algebra:
                raise MalformedDocument(
                    f"level set {space.name_of(level)!r} is not in the algebra")

    def level_sets(self) -> Tuple[Tuple[Fraction, FrozenSet[str]], ...]:
        by_value: Dict[Fraction, set] = {}
        for p, v in self.values.items():
            by_value.setdefault(v, set()).add(p)
        return tuple((v, frozenset(s)) for v, s in sorted(by_value.items()))

    def __eq__(self, other) -> bool:
        return (isinstance(other, ClassicalSimpleFunction)
                and self.values == other.values
                and self.space is other.space)

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.values.items())))

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
    if over not in set(space.algebra):
        raise MalformedDocument(
            f"{space.name_of(over)!r} is not a member of the algebra")
    pos: ExtValue = Fraction(0)
    neg: ExtValue = Fraction(0)
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
    congruence frame of the algebra, with A_i the level sets."""
    space = f.space
    frame = space.lattice().congruence_frame()
    facade = frame.as_lattice()
    terms = []
    for r, level in f.level_sets():
        theta = frame.nabla_of(space.name_of(level))
        terms.append((r, theta.partition_name()))
    return SimpleFunction(facade, terms)


def from_localic(g: SimpleFunction, space: FiniteMeasurableSpace) -> ClassicalSimpleFunction:
    """Inverse of to_localic for functions whose term elements are closed
    congruences of the algebra."""
    frame = space.lattice().congruence_frame()
    values: Dict[str, Fraction] = {}
    for r, element in g.terms:
        theta = frame.congruence_of_element(element)
        labels = frame.labels_of(theta)
        if not labels["nabla"]:
            raise MalformedDocument(
                f"term element {element!r} is not a closed congruence")
        for p in space.subset_of_name(labels["nabla"][0]):
            values[p] = r
    for p in space.points:
        values.setdefault(p, Fraction(0))
    return ClassicalSimpleFunction(space, values)


def extend_measure(space: FiniteMeasurableSpace) -> Measure:
    """The measure on S(A) determined by lambda: every congruence of the
    finite Boolean algebra A is nabla(B) for a unique B, and the quotient
    by nabla(B) is the open sublocale of the complement, so it gets
    lambda(X minus B), the sum of lambda over the atoms it keeps."""
    lat = space.lattice()
    return additive_measure(space.view(), [space.lam[space.algebra[j]] for j in lat._jirr])


class BridgeReport(NamedTuple):
    """Both integrals side by side, with their classifications."""

    classical_value: Optional[ExtValue]
    localic_value: Optional[ExtValue]
    classical: SummabilityReport
    localic: SummabilityReport

    @property
    def equal(self) -> bool:
        return (self.classical_value == self.localic_value
                and self.classical.classification == self.localic.classification)


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
    l_report = summability(g, mu, mu.view.open_sublocale(space.name_of(over)))
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
