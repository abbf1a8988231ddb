"""Simple functions: finite rational combinations of characteristic functions.

A simple function on L is constant on each atom of the Boolean centre Z(L),
the sublattice of complemented elements, as every complemented element is
the join of the centre atoms below it.  So a ``SimpleFunction`` is its
carrier and its values on At(Z(L)) (found once per lattice, in element
order): ``_vec`` = (den, vals), ints with no common factor.  That vector is
unique: equality reads it, and the ring operations, the parts and the
modulus are pointwise on it.  The canonical form ``terms`` is the vector's
level sets by ascending value: strictly ascending rationals over a
pairwise-disjoint complemented cover of the top.  A function built from
canonical terms (checked in O(t), comparing coefficients by integer
cross-multiplication) keeps them and fills the vector on first use; one
built from a vector builds its terms on first read.  The hash is that of
the terms.  ``canonicalize`` adds each term's coefficient to the centre
atoms below its element.  Names appear only at the boundary; inside,
elements are the carrier's J-masks.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import gcd, lcm
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    ConsistencyError,
    InvalidArgument,
    MalformedDocument,
    NotFinite,
    NotNonnegative,
    SizeLimitExceeded,
)
from .lattice import FiniteLattice, check_same_carrier
from .rationals import ZERO, over_common_denominator, parse_rational

if TYPE_CHECKING:
    from .cutfunction import CutFunction

#: Longest decomposition horizon: each step keeps its stage, and 10^4 steps
#: of a one-term function take about 0.15 s (Python 3.11 on a 2-CPU Xeon).
DECOMPOSITION_LIMIT = 10_000


class SimpleFunction:
    """A simple function in canonical form.

    The constructor checks canonicity and keeps the terms as the view.  Use
    ``canonicalize`` (or the arithmetic here) to build from raw term lists.
    """

    __slots__ = ("carrier", "_vec", "_terms", "_hash")

    def __init__(self, carrier: FiniteLattice, terms: Sequence[Tuple[Fraction, str]]):
        if not carrier._full:
            raise MalformedDocument("simple functions need a carrier with 0 != 1")
        terms = _coerced(terms)
        if not terms:
            raise ConsistencyError("canonical form cannot be empty; zero is (0, top)")
        if not _is_canonical(carrier, terms):
            _raise_first_violation(carrier, terms)
        self.carrier, self._vec, self._terms, self._hash = carrier, None, terms, None

    def _vector(self) -> Tuple[int, Tuple[int, ...]]:
        """(den, vals), vals[i] / den on the i-th centre atom; filled from the
        terms on first use, when den is their least common denominator."""
        if self._vec is None:
            self._vec = _atom_sums(self.carrier, self._terms)
        return self._vec

    def _point_values(self) -> Tuple[int, Tuple[int, ...]]:
        """(den, vals), the one reader of the vector from outside this module
        (the integrals): on a Boolean carrier the centre atoms are the atoms,
        so vals[i] / den is the value at carrier bit i."""
        return self._vector()

    @property
    def terms(self) -> Tuple[Tuple[Fraction, str], ...]:
        """The level sets of the value vector, by ascending value."""
        if self._terms is None:
            den, vals = self._vec
            at = self.carrier._at
            self._terms = tuple([(Fraction(v, den), at[m])
                                 for v, m in sorted(_levels(self.carrier, vals).items())])
        return self._terms

    def coefficients(self) -> Tuple[Fraction, ...]:
        return tuple([r for r, _ in self.terms])

    def elements(self) -> Tuple[str, ...]:
        return tuple(a for _, a in self.terms)

    def is_nonnegative(self) -> bool:
        return self.terms[0][0].numerator >= 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimpleFunction)
                and self._vector() == other._vector()
                and (self.carrier is other.carrier or self.carrier == other.carrier))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def __repr__(self) -> str:
        return " + ".join(f"{r}*chi({a})" for r, a in self.terms)


def _coerced(terms: Iterable[Tuple[Fraction, str]]) -> Tuple[Tuple[Fraction, str], ...]:
    return tuple([(r if type(r) is Fraction else parse_rational(r), a) for r, a in terms])


def _is_canonical(carrier: FiniteLattice, terms: Sequence[Tuple[Fraction, str]]) -> bool:
    """Fast path, O(t) on the masks: ascending coefficients, and each a_k
    complemented, nonzero and disjoint from a_1 \\/ ... \\/ a_{k-1}
    (pairwise disjointness, by distributivity), with the join reaching top."""
    mask, at, full = carrier._mask, carrier._at, carrier._full
    cover = 0
    p, e = -1, 0  # -1/0 is below every n/d: p * d < n * e
    for r, a in terms:
        m = mask.get(a)
        n, d = r.as_integer_ratio()
        if not m or (full ^ m) not in at or m & cover or not p * d < n * e:
            return False  # unknown, bottom, not complemented, overlapping, or not ascending
        cover |= m
        p, e = n, d
    return cover == full


def _raise_first_violation(carrier: FiniteLattice, terms: Sequence[Tuple[Fraction, str]]) -> None:
    """Fallback: the term-by-term, pair-by-pair check, so a non-canonical
    list reports the first violation in reading order."""
    cover = carrier.bottom
    for k, (r, a) in enumerate(terms):
        if k and not terms[k - 1][0] < r:
            raise ConsistencyError("coefficients must be strictly ascending")
        if a == carrier.bottom:
            raise ConsistencyError("canonical terms exclude the bottom element")
        if not carrier.is_complemented(a):
            raise ConsistencyError(f"term element {a!r} is not complemented")
        for _, b in terms[k + 1:]:
            if carrier.meet(a, b) != carrier.bottom:
                raise ConsistencyError(f"term elements {a!r}, {b!r} are not disjoint")
        cover = carrier.join(cover, a)
    if cover != carrier.top:
        raise ConsistencyError("term elements do not cover the top")
    raise ConsistencyError("fast and term-by-term canonicity checks disagree")


def _atom_sums(carrier: FiniteLattice, terms: Sequence[Tuple[Fraction, str]]) -> Tuple[int, tuple]:
    """(D, the sum of the terms on each centre atom times D), for D the
    least common denominator of the coefficients.  Each term element is
    complemented, so each atom lies below it or is disjoint from it."""
    centre, mask = carrier._centre_atoms(), carrier._mask
    den = lcm(*[r.denominator for r, _ in terms])
    vals = [0] * len(centre)
    for r, a in terms:
        k = r.numerator * (den // r.denominator)
        m = mask[a]
        for i, atom in enumerate(centre):
            if atom & m:
                vals[i] += k
    return den, tuple(vals)


def _levels(carrier: FiniteLattice, vals: Sequence[int]) -> Dict[int, int]:
    """{value: the join of the centre atoms carrying it}."""
    level: Dict[int, int] = {}
    for atom, v in zip(carrier._centre_atoms(), vals):
        level[v] = level.get(v, 0) | atom
    return level


def _built(carrier: FiniteLattice, vec: Optional[tuple], terms: Optional[tuple]) -> SimpleFunction:
    """A function from its reduced vector or its canonical terms, unchecked;
    the other view is built on first use."""
    g = SimpleFunction.__new__(SimpleFunction)
    g.carrier, g._vec, g._terms, g._hash = carrier, vec, terms, None
    return g


def _from_vector(carrier: FiniteLattice, den: int, vals: Sequence[int]) -> SimpleFunction:
    """The function with value vals[i] / den on the i-th centre atom, with
    the common factor taken out."""
    common = gcd(den, *vals)
    return _built(carrier, (den // common, tuple([v // common for v in vals])), None)


# -- constructors ------------------------------------------------------------------


def from_cells(carrier: FiniteLattice, cells: Dict[str, Fraction]) -> SimpleFunction:
    """Canonical form from a disjoint cover {cell element: coefficient}."""
    return canonicalize(carrier, [(r, cell) for cell, r in cells.items()])


def canonicalize(carrier: FiniteLattice, terms: Iterable[Tuple[Fraction, str]]) -> SimpleFunction:
    """Canonical form of an arbitrary sum of scaled characteristics: each
    term adds its coefficient to the centre atoms below its element.  A
    list that is canonical already (the O(t) ``_is_canonical``) is kept as
    the terms view.  In any other, an unknown element raises
    MalformedDocument and a non-complemented one NotComplemented."""
    terms = _coerced(terms)
    if terms and _is_canonical(carrier, terms):
        return _built(carrier, None, terms)
    for _, a in terms:
        carrier.complement(a)  # MalformedDocument or NotComplemented for bad terms
    if not carrier._full:
        raise MalformedDocument("simple functions need a carrier with 0 != 1")
    return _from_vector(carrier, *_atom_sums(carrier, terms))


def zero(carrier: FiniteLattice) -> SimpleFunction:
    return SimpleFunction(carrier, ((ZERO, carrier.top),))


def constant_simple(r: Fraction, carrier: FiniteLattice) -> SimpleFunction:
    return SimpleFunction(carrier, ((r, carrier.top),))


def characteristic_simple(a: str, carrier: FiniteLattice) -> SimpleFunction:
    return canonicalize(carrier, ((Fraction(1), a),))


# -- ring structure: pointwise on the centre atoms ------------------------------------


def sf_add(g: SimpleFunction, h: SimpleFunction) -> SimpleFunction:
    """Pointwise sum on the centre atoms."""
    check_same_carrier(g.carrier, h.carrier,
                       "the two simple functions live on different carriers")
    (p, u), (q, v) = g._vector(), h._vector()
    return _from_vector(g.carrier, p * q, [a * q + b * p for a, b in zip(u, v)])


def sf_mul(g: SimpleFunction, h: SimpleFunction) -> SimpleFunction:
    """Pointwise product on the centre atoms; valid for all signs."""
    check_same_carrier(g.carrier, h.carrier,
                       "the two simple functions live on different carriers")
    (p, u), (q, v) = g._vector(), h._vector()
    return _from_vector(g.carrier, p * q, [a * b for a, b in zip(u, v)])


def sf_scale(lam: Fraction, g: SimpleFunction) -> SimpleFunction:
    """lam * g, pointwise on the centre atoms."""
    n, d = parse_rational(lam).as_integer_ratio()
    den, vals = g._vector()
    return _from_vector(g.carrier, d * den, [n * v for v in vals])


def sf_neg(g: SimpleFunction) -> SimpleFunction:
    return _each(g, operator.neg)


def positive_part(g: SimpleFunction) -> SimpleFunction:
    return _each(g, lambda v: max(v, 0))


def negative_part(g: SimpleFunction) -> SimpleFunction:
    return _each(g, lambda v: max(-v, 0))


def abs_simple(g: SimpleFunction) -> SimpleFunction:
    return _each(g, abs)


def _each(g: SimpleFunction, op: Callable[[int], int]) -> SimpleFunction:
    """op on each value of g, over the same denominator."""
    den, vals = g._vector()
    return _from_vector(g.carrier, den, [op(v) for v in vals])


# -- the two-way bridge to cut ladders --------------------------------------------------


@cache
def _cutfunction():
    """The ``cutfunction`` module, imported on first use and cached: an import
    statement costs about 2 us per call, a fifth of ``to_cut_function``
    (Python 3.11)."""
    from . import cutfunction

    return cutfunction


def to_cut_function(g: SimpleFunction) -> CutFunction:
    """Closed-form ladders of a canonical simple function: the lower cuts
    step through the prefix joins of the cover at each coefficient, the
    upper cuts through the suffix joins.  The coefficients and the cover
    are read as ints and masks, from the terms if the function holds them
    and otherwise from the level sets of its vector."""
    lat = g.carrier
    if g._terms is None:
        den, vals = g._vec
        level = _levels(lat, vals)
        grid = sorted(level)
        cover = [level[v] for v in grid]
    else:
        den, grid = over_common_denominator([r for r, _ in g._terms])
        cover = [lat._mask[a] for _, a in g._terms]
    lower = list(accumulate(cover, operator.or_, initial=0))
    upper = list(accumulate(reversed(cover), operator.or_, initial=0))[::-1]
    return _cutfunction()._from_grid(lat, den, grid, upper, lower)


def cut_to_simple(f: CutFunction) -> SimpleFunction:
    """Invert the closed-form table: the cell where f equals the j-th
    breakpoint is upper[j] /\\ lower[j+1].  Total on finite functions."""
    if not f.is_finite():
        raise NotFinite("only finite functions are simple")
    at = f.carrier._at
    return SimpleFunction(f.carrier, [(r, at[m]) for r, m in zip(f.breakpoints, f._cells())])


# -- decomposition of nonnegative functions ----------------------------------------------


class DecompositionStep(NamedTuple):
    """One stage of the increasing approximation: the new cell a_k, the
    accumulated stage f_k, and (for finite input) the sup coefficient of
    the residual f - f_k."""

    k: int
    cell: str
    stage: SimpleFunction
    residual_sup: Optional[Fraction]


def _difference_upper_at(f: CutFunction, g: SimpleFunction, k: int) -> int:
    """The mask of (f - g)(1/k,-), evaluated without forming f - g, so it
    also applies to extended f.  The ladder formula sup_t f(t,-) /\\
    g(-, t - 1/k) is a join over the pieces of g's ladder; by
    distributivity and as f's cut is antitone, it is the join over the
    centre atoms of atom /\\ f(v + 1/k,-), for v the value of g there."""
    den, vals = g._vector()
    acc = 0
    for atom, v in zip(g.carrier._centre_atoms(), vals):
        acc |= atom & f._upper_mask_at(v * k + den, den * k)
    return acc


def decompose_trace(f: CutFunction, horizon: int = 12) -> List[DecompositionStep]:
    """The increasing sequence f_k = sum_{i<=k} (1/i) chi(a_i) with
    a_k = (f - f_{k-1})(1/k,-), recorded step by step, for a horizon of
    1 to ``DECOMPOSITION_LIMIT`` steps."""
    if horizon < 1:
        raise InvalidArgument("horizon must be at least 1")
    if horizon > DECOMPOSITION_LIMIT:
        raise SizeLimitExceeded(
            f"horizon {horizon} exceeds the {DECOMPOSITION_LIMIT}-step limit")
    if not f.is_nonnegative():
        raise NotNonnegative("the decomposition needs a nonnegative function")
    # Each upper cut value is complemented: the cut relations make the
    # lower cut on the same interval its complement.
    lat = f.carrier
    f_simple = cut_to_simple(f) if f.is_finite() else None
    steps: List[DecompositionStep] = []
    fk = zero(lat)
    for k in range(1, horizon + 1):
        cell = lat._at[_difference_upper_at(f, fk, k)]
        if cell != lat.bottom:
            fk = sf_add(fk, sf_scale(Fraction(1, k), characteristic_simple(cell, lat)))
        residual = None
        if f_simple is not None:
            residual = sf_add(f_simple, sf_neg(fk)).coefficients()[-1]
        steps.append(DecompositionStep(k, cell, fk, residual))
    return steps


def decompose(f: CutFunction, horizon: int = 12) -> List[SimpleFunction]:
    return [step.stage for step in decompose_trace(f, horizon)]


def decomposition_grid(k: int) -> Tuple[Fraction, ...]:
    """Witness breakpoint grid for stage k: start from {0, 1}; at stage i a
    point shifted by 1/i subdivides a gap only when it lands strictly
    inside it, and the previous maximum advances by 1/i.  The grid runs
    from 0 to the k-th harmonic sum with gaps of at most 1/k."""
    den, pts = _decomposition_ints(k)
    return tuple(Fraction(p, den) for p in pts)


def _decomposition_ints(k: int) -> Tuple[int, List[int]]:
    """(D, the witness grid times D) for D = lcm(1, ..., k), where 1/i is
    D // i."""
    den = lcm(*range(1, k + 1))
    pts = [0, den]
    for i in range(2, k + 1):
        step = den // i
        refined = set(pts)
        for j in range(1, len(pts)):
            candidate = pts[j - 1] + step
            if candidate < pts[j]:
                refined.add(candidate)
        refined.add(pts[-1] + step)
        pts = sorted(refined)
    return den, pts


def stage_table(f: CutFunction, k: int) -> CutFunction:
    """Expected ladders of stage k read off the witness grid: the value on
    [t_{j-1}, t_j) is f(t_j,-), with complements below."""
    lat = f.carrier
    den, grid = _decomposition_ints(k)
    upper = [lat._full] + [f._upper_mask_at(t, den) for t in grid[1:]] + [0]
    return _cutfunction()._from_grid(lat, den, grid, upper, [lat._full ^ m for m in upper])
