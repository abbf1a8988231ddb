"""Simple functions: finite rational combinations of characteristic functions.

A simple function on L is constant on each atom of the Boolean centre Z(L),
the sublattice of complemented elements, as every complemented element is
the join of the centre atoms below it.  So a ``SimpleFunction`` is its
carrier and its values on At(Z(L)) (found once per lattice, in element
order): ``_vec`` = (den, vals), ints with no common factor.  That vector
is unique: equality reads it, the ring operations and the modulus are
pointwise on it, and the bridge to cut ladders reads its level sets.  The
canonical form ``terms`` is those level sets by ascending value: strictly
ascending rationals over a pairwise-disjoint complemented cover of the
top, built on first read.  The integrals read the vector too, so no
positive or negative part is ever built as a function.  The hash is that of
the terms.  Names enter only through ``canonicalize`` and the constructor
and leave only through ``terms`` and the cells a decomposition records;
inside, elements are the carrier's J-masks.  ``canonicalize`` is the one
builder of a vector from any finite sum of scaled characteristics, the
constructor's and ``cut_to_simple``'s too: it reads its terms in one pass
(each coefficient's int ratio, its element's row of centre atoms, the
running common denominator), then fills and reduces the vector; the ring
operations build theirs pointwise in one list.  The code that names a
fault runs only after something has failed.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from math import gcd, lcm
from typing import TYPE_CHECKING, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    InvalidArgument,
    MalformedDocument,
    NotFinite,
    NotNonnegative,
    SizeLimitExceeded,
)
from .lattice import FiniteLattice, check_same_carrier
from .rationals import ZERO, parse_rational

if TYPE_CHECKING:
    from .cutfunction import CutFunction

#: Longest decomposition horizon: each step keeps its stage, and 10^4 steps
#: of a one-term function take about 0.03 s in-process and 0.2 s as a cold
#: ``locint decompose --k 10000``, output included (Python 3.11 on a 2-CPU
#: Xeon).
DECOMPOSITION_LIMIT = 10_000


class SimpleFunction:
    """A simple function, held as its values on the centre atoms.

    ``SimpleFunction(carrier, terms)`` takes any finite list of (r, a)
    with each a complemented, standing for sum r * chi(a), and builds it
    through ``canonicalize``: the same function, the same faults.
    """

    __slots__ = ("carrier", "_vec", "_terms", "_hash")

    def __init__(self, carrier: FiniteLattice, terms: Iterable[Tuple[Fraction, str]]):
        self.carrier, self._vec = carrier, canonicalize(carrier, terms)._vec
        self._terms = self._hash = None

    def _point_values(self) -> Tuple[int, Tuple[int, ...]]:
        """(den, vals), the one reader of the vector from outside this module
        (the integrals): on a Boolean carrier the centre atoms are the atoms,
        so vals[i] / den is the value at carrier bit i."""
        return self._vec

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
        den, vals = self._vec
        return tuple([Fraction(v, den) for v in sorted(set(vals))])

    def is_nonnegative(self) -> bool:
        return min(self._vec[1]) >= 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimpleFunction)
                and self._vec == other._vec
                and (self.carrier is other.carrier or self.carrier == other.carrier))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def __repr__(self) -> str:
        return " + ".join(f"{r}*chi({a})" for r, a in self.terms)


def _coerced(terms: Iterable[Tuple[Fraction, str]]) -> Tuple[Tuple[Fraction, str], ...]:
    return tuple([(r if type(r) is Fraction else parse_rational(r), a) for r, a in terms])


def _levels(carrier: FiniteLattice, vals: Sequence[int]) -> Dict[int, int]:
    """{value: the join of the centre atoms carrying it}."""
    level: Dict[int, int] = {}
    for atom, v in zip(carrier._centre_atoms(), vals):
        level[v] = level.get(v, 0) | atom
    return level


def _from_vector(carrier: FiniteLattice, den: int, vals: Sequence[int]) -> SimpleFunction:
    """The function with value vals[i] / den on the i-th centre atom, with
    the common factor taken out; unchecked."""
    common = gcd(den, *vals)
    g = SimpleFunction.__new__(SimpleFunction)
    g.carrier, g._terms, g._hash = carrier, None, None
    g._vec = (den, tuple(vals)) if common == 1 else (den // common, tuple([v // common for v in vals]))
    return g


# -- constructors ------------------------------------------------------------------


def canonicalize(carrier: FiniteLattice, terms: Iterable[Tuple[Fraction, str]]) -> SimpleFunction:
    """Canonical form of an arbitrary sum of scaled characteristics: each
    term adds its coefficient to the centre atoms below its element.  One
    pass reads each coefficient's int ratio and its element's centre row
    and keeps the running least common denominator D; then each term adds
    its coefficient times D to the atoms of its row, and the vector is
    reduced.  On any fault the ordered check names the first: every
    coefficient before any element, then an unknown element raises
    MalformedDocument and a non-complemented one NotComplemented, in
    reading order, and a carrier with 0 = 1 raises last."""
    if type(terms) is not list and type(terms) is not tuple:
        terms = tuple(terms)  # read once, so the fallback sees every term
    rows = carrier._centre_rows()
    den, parts = 1, []
    try:
        for r, a in terms:
            n, d = (r if type(r) is Fraction else parse_rational(r)).as_integer_ratio()
            parts.append((n, d, rows[a]))
            if den % d:
                den = lcm(den, d)
    except (KeyError, TypeError, ValueError):  # a bad term, coefficient or element
        for _, a in _coerced(terms):  # complement names the first bad element
            carrier.complement(a)
        raise
    if not carrier._full:
        raise MalformedDocument("simple functions need a carrier with 0 != 1")
    vals = [0] * len(carrier._centre)
    for n, d, row in parts:
        if n:
            n *= den // d
            for i in row:
                vals[i] += n
    return _from_vector(carrier, den, vals)


def zero(carrier: FiniteLattice) -> SimpleFunction:
    return canonicalize(carrier, ((ZERO, carrier.top),))


def constant_simple(r: Fraction, carrier: FiniteLattice) -> SimpleFunction:
    return canonicalize(carrier, ((r, carrier.top),))


def characteristic_simple(a: str, carrier: FiniteLattice) -> SimpleFunction:
    return canonicalize(carrier, ((Fraction(1), a),))


# -- ring structure: pointwise on the centre atoms ------------------------------------


_DIFFERENT_CARRIERS = "the two simple functions live on different carriers"


def sf_add(g: SimpleFunction, h: SimpleFunction) -> SimpleFunction:
    """Pointwise sum on the centre atoms."""
    if g.carrier is not h.carrier:
        check_same_carrier(g.carrier, h.carrier, _DIFFERENT_CARRIERS)
    (p, u), (q, v) = g._vec, h._vec
    return _from_vector(g.carrier, p * q, [a * q + b * p for a, b in zip(u, v)])


def sf_mul(g: SimpleFunction, h: SimpleFunction) -> SimpleFunction:
    """Pointwise product on the centre atoms; valid for all signs."""
    if g.carrier is not h.carrier:
        check_same_carrier(g.carrier, h.carrier, _DIFFERENT_CARRIERS)
    (p, u), (q, v) = g._vec, h._vec
    return _from_vector(g.carrier, p * q, [a * b for a, b in zip(u, v)])


def sf_scale(lam: Fraction, g: SimpleFunction) -> SimpleFunction:
    """lam * g, pointwise on the centre atoms."""
    n, d = parse_rational(lam).as_integer_ratio()
    den, vals = g._vec
    return _from_vector(g.carrier, d * den, [n * v for v in vals])


def sf_neg(g: SimpleFunction) -> SimpleFunction:
    den, vals = g._vec
    return _from_vector(g.carrier, den, [-v for v in vals])


def abs_simple(g: SimpleFunction) -> SimpleFunction:
    """|g|, pointwise on the centre atoms, over the same denominator."""
    den, vals = g._vec
    return _from_vector(g.carrier, den, [abs(v) for v in vals])


# -- the two-way bridge to cut ladders --------------------------------------------------


@cache
def _cutfunction():
    """The ``cutfunction`` module, imported on first use and cached: a
    function-level ``from . import cutfunction`` costs about 0.38 us per
    call, against 0.034 us for this cached accessor (Python 3.11)."""
    from . import cutfunction

    return cutfunction


def to_cut_function(g: SimpleFunction) -> CutFunction:
    """Closed-form upper ladder of a simple function, read off the level
    sets of its vector: past each value the upper cut drops that value's
    level, so the cuts are the top minus the levels of the values passed.
    The vector is reduced and its levels are nonzero and partition the
    top, so the grid of distinct values is strictly increasing with no
    factor common to the denominator, and the ladder falls strictly from
    the top to 0: the unchecked builder takes them."""
    lat = g.carrier
    den, vals = g._vec
    level = _levels(lat, vals)
    grid = sorted(level)
    up = lat._full
    return _cutfunction()._from_reduced(lat, den, grid, [up] + [up := up ^ level[v] for v in grid])


def cut_to_simple(f: CutFunction) -> SimpleFunction:
    """Invert the closed-form table: the cell where f equals the j-th
    breakpoint is upper[j] /\\ lower[j+1], so f is the sum of each
    breakpoint times its cell's characteristic.  Total on finite functions."""
    if not f.is_finite():
        raise NotFinite("only finite functions are simple")
    lat = f.carrier
    return canonicalize(lat, [(t, lat._at[c]) for t, c in zip(f.breakpoints, f._cells())])


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
    den, vals = g._vec
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
    f_vec = cut_to_simple(f)._vec if f.is_finite() else None
    steps: List[DecompositionStep] = []
    fk = zero(lat)
    for k in range(1, horizon + 1):
        cell = _difference_upper_at(f, fk, k)
        if cell:  # f_k = f_{k-1} + 1/k on the centre atoms below the cell
            den, vals = fk._vec
            fk = _from_vector(lat, den * k, [v * k + den if atom & cell else v * k
                                             for atom, v in zip(lat._centre_atoms(), vals)])
        residual = None
        if f_vec is not None:  # the largest value of f - f_k
            (p, u), (q, v) = f_vec, fk._vec
            residual = Fraction(max([a * q - b * p for a, b in zip(u, v)]), p * q)
        steps.append(DecompositionStep(k, lat._at[cell], fk, residual))
    return steps


def decomposition_grid(k: int) -> Tuple[Fraction, ...]:
    """Witness breakpoint grid for stage k: start from {0, 1}; at stage i a
    point shifted by 1/i subdivides a gap only when it lands strictly
    inside it, and the previous maximum advances by 1/i.  The grid runs
    from 0 to the k-th harmonic sum with gaps of at most 1/k."""
    den, pts = _decomposition_ints(k)
    return tuple(Fraction(p, den) for p in pts)


@lru_cache(maxsize=16)
def _decomposition_ints(k: int) -> Tuple[int, Tuple[int, ...]]:
    """(D, the witness grid times D) for D = lcm(1, ..., k), where 1/i is
    D // i.  Cached, as each stage k is read once per function checked."""
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
    return den, tuple(pts)


def stage_table(f: CutFunction, k: int) -> CutFunction:
    """Expected upper ladder of stage k read off the witness grid: the value
    on [t_{j-1}, t_j) is f(t_j,-)."""
    lat = f.carrier
    den, grid = _decomposition_ints(k)
    upper = [lat._full] + [f._upper_mask_at(t, den) for t in grid[1:]] + [0]
    return _cutfunction()._from_grid(lat, den, grid, upper)
