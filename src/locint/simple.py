"""Simple functions: finite rational combinations of characteristic functions.

The canonical form of a simple function lists strictly ascending rational
coefficients over a pairwise-disjoint complemented cover of the top.  Two
simple functions are equal exactly when their canonical term lists agree.
All ring operations work on the common refinement of the two covers and
re-canonicalise; arbitrary (overlapping) representations are brought to
canonical form by splitting the top into the cells of the Boolean
subalgebra generated by the mentioned elements.

Element names appear only at the boundary.  Inside, terms and cells are
the carrier's J-masks (``_mask`` maps a name to its mask and ``_at`` a
mask back): a meet is ``&``, a join ``|`` and the complement of a
complemented mask is its difference from ``_full``.  Coefficients are ints
over a common denominator: the cell split and the refinement products add
or multiply them, and the one routine that groups cells by coefficient
(``_grouped``) sorts on them and builds one ``Fraction`` per term.  The
O(t) canonicity check compares coefficients by integer cross-multiplication;
a term list that is canonical already needs no cell split.  Every
``SimpleFunction`` is checked for canonicity when it is built; its hash is
computed on the first ``hash()`` call only.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import lcm
from typing import TYPE_CHECKING, Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    ComplementationFailure,
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
#: of a one-term function take about half a second.
DECOMPOSITION_LIMIT = 10_000


class SimpleFunction:
    """A simple function in canonical form.

    The constructor only checks canonicity.  Use ``canonicalize`` (or the
    arithmetic in this module) to build instances from raw term lists.
    """

    __slots__ = ("carrier", "terms", "_hash")

    def __init__(self, carrier: FiniteLattice, terms: Sequence[Tuple[Fraction, str]]):
        if not carrier._full:
            raise MalformedDocument("simple functions need a carrier with 0 != 1")
        terms = _coerced(terms)
        if not terms:
            raise ConsistencyError("canonical form cannot be empty; zero is (0, top)")
        if not _is_canonical(carrier, terms):
            _raise_first_violation(carrier, terms)
        self.carrier = carrier
        self.terms = terms
        self._hash = None

    def coefficients(self) -> Tuple[Fraction, ...]:
        return tuple([r for r, _ in self.terms])

    def elements(self) -> Tuple[str, ...]:
        return tuple(a for _, a in self.terms)

    def is_nonnegative(self) -> bool:
        return self.terms[0][0].numerator >= 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimpleFunction)
                and self.terms == other.terms
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


# -- constructors ------------------------------------------------------------------


def _grouped(carrier: FiniteLattice, cells: Iterable[Tuple[int, int]], den: int) -> SimpleFunction:
    """Canonical form from a disjoint cover given by mask: merge
    equal-coefficient cells by join, skip the bottom, sort, and build each
    term once.  ``cells`` yields (cell mask, coefficient * den) pairs."""
    by_coeff: Dict[int, int] = {}
    for cell, k in cells:
        if cell:
            by_coeff[k] = by_coeff.get(k, 0) | cell
    if not by_coeff:
        return zero(carrier)
    at = carrier._at
    return SimpleFunction(carrier, [(Fraction(k, den), at[c])
                                    for k, c in sorted(by_coeff.items())])


def from_cells(carrier: FiniteLattice, cells: Dict[str, Fraction]) -> SimpleFunction:
    """Canonical form from a disjoint cover: merge equal-coefficient cells
    by join and sort.  ``cells`` maps cell element -> coefficient."""
    den, ks = over_common_denominator([parse_rational(r) for r in cells.values()])
    return _grouped(carrier, [(carrier.jmask(cell), k) for cell, k in zip(cells, ks)], den)


def canonicalize(carrier: FiniteLattice, terms: Iterable[Tuple[Fraction, str]]) -> SimpleFunction:
    """Canonical form of an arbitrary sum of scaled characteristics.

    A term list that is canonical already (the O(t) ``_is_canonical``
    check) is the answer, as the canonical form is unique, and needs no
    cell split; the constructor checks it as it checks every function.
    Any other list goes through the cell split: the top is split
    into the cells of the subalgebra generated by the mentioned elements;
    each term adds its coefficient to the cells below its element, and
    cells (including the residual coefficient-0 cell) are regrouped by
    coefficient.  The split runs on masks; an unknown element raises
    MalformedDocument and a non-complemented one NotComplemented."""
    terms = _coerced(terms)
    if _is_canonical(carrier, terms):
        return SimpleFunction(carrier, terms)
    den, ks = over_common_denominator([r for r, _ in terms])
    cells: Dict[int, int] = {carrier._full: 0}
    for r, (_, a) in zip(ks, terms):
        carrier.complement(a)  # MalformedDocument or NotComplemented for bad terms
        m = carrier._mask[a]
        nxt: Dict[int, int] = {}
        for cell, coeff in cells.items():
            inside = cell & m
            outside = cell & ~m
            if inside:
                nxt[inside] = coeff + r
            if outside:
                nxt[outside] = coeff
        cells = nxt
    return _grouped(carrier, cells.items(), den)


def zero(carrier: FiniteLattice) -> SimpleFunction:
    return SimpleFunction(carrier, ((ZERO, carrier.top),))


def constant_simple(r: Fraction, carrier: FiniteLattice) -> SimpleFunction:
    return SimpleFunction(carrier, ((r, carrier.top),))


def characteristic_simple(a: str, carrier: FiniteLattice) -> SimpleFunction:
    return canonicalize(carrier, ((Fraction(1), a),))


# -- ring structure ------------------------------------------------------------------


def _on_refinement(g: SimpleFunction, h: SimpleFunction,
                   op: Callable[[int, int], int]) -> SimpleFunction:
    """op(r_i, s_j) on each nonzero cell a_i /\\ b_j of the common refinement,
    on the coefficients as ints over their common denominator D (so a
    product is over D * D)."""
    check_same_carrier(g.carrier, h.carrier,
                       "the two simple functions live on different carriers")
    lat = g.carrier
    mask = lat._mask
    den, ks = over_common_denominator([r for r, _ in g.terms + h.terms])
    h_terms = [(s, mask[b]) for s, (_, b) in zip(ks[len(g.terms):], h.terms)]
    cells = []
    for r, (_, a) in zip(ks, g.terms):
        m = mask[a]
        for s, b in h_terms:
            cell = m & b
            if cell:
                cells.append((cell, op(r, s)))
    return _grouped(lat, cells, den * den if op is operator.mul else den)


def sf_add(g: SimpleFunction, h: SimpleFunction) -> SimpleFunction:
    """Sum over the common refinement: (r_i + s_j) on a_i /\\ b_j."""
    return _on_refinement(g, h, operator.add)


def sf_mul(g: SimpleFunction, h: SimpleFunction) -> SimpleFunction:
    """Product over the common refinement: (r_i * s_j) on a_i /\\ b_j;
    valid for all signs."""
    return _on_refinement(g, h, operator.mul)


def sf_scale(lam: Fraction, g: SimpleFunction) -> SimpleFunction:
    """lam * g; the scaled terms are canonical already (in reverse order
    when lam < 0), so nothing is regrouped."""
    lam = parse_rational(lam)
    if not lam.numerator:
        return zero(g.carrier)
    n, d = lam.as_integer_ratio()
    terms = [(Fraction(n * r.numerator, d * r.denominator), a) for r, a in g.terms]
    return SimpleFunction(g.carrier, terms if n > 0 else terms[::-1])


def sf_neg(g: SimpleFunction) -> SimpleFunction:
    return SimpleFunction(g.carrier, [(-r, a) for r, a in reversed(g.terms)])


def _clipped(g: SimpleFunction, sign: int) -> SimpleFunction:
    """max(sign * r, 0) on each cell of g."""
    den, ks = over_common_denominator(g.coefficients())
    mask = g.carrier._mask
    cells = [(mask[a], max(sign * k, 0)) for k, (_, a) in zip(ks, g.terms)]
    return _grouped(g.carrier, cells, den)


def positive_part(g: SimpleFunction) -> SimpleFunction:
    return _clipped(g, 1)


def negative_part(g: SimpleFunction) -> SimpleFunction:
    return _clipped(g, -1)


def abs_simple(g: SimpleFunction) -> SimpleFunction:
    return sf_add(positive_part(g), negative_part(g))


# -- the two-way bridge to cut ladders --------------------------------------------------


@cache
def _cut_function_class():
    """``CutFunction``, imported on first use and cached: an import statement
    costs about 2 us per call, a fifth of ``to_cut_function`` (Python 3.11)."""
    from .cutfunction import CutFunction

    return CutFunction


def to_cut_function(g: SimpleFunction) -> CutFunction:
    """Closed-form ladders of a canonical simple function: the lower cuts
    step through the prefix joins of the cover at each coefficient, the
    upper cuts through the suffix joins."""
    lat = g.carrier
    mask, at = lat._mask, lat._at
    cover = [mask[a] for _, a in g.terms]
    lower = list(accumulate(cover, operator.or_, initial=0))
    upper = list(accumulate(reversed(cover), operator.or_, initial=0))
    return _cut_function_class()(lat, g.coefficients(), [at[x] for x in reversed(upper)],
                                 [at[x] for x in lower])


def cut_to_simple(f: CutFunction) -> SimpleFunction:
    """Invert the closed-form table: the cell where f equals the j-th
    breakpoint is upper[j] /\\ lower[j+1].  Total on finite functions."""
    if not f.is_finite():
        raise NotFinite("only finite functions are simple")
    lat = f.carrier
    mask, at = lat._mask, lat._at
    return SimpleFunction(lat, [(r, at[mask[u] & mask[l]])
                                for r, u, l in zip(f.breakpoints, f.upper, f.lower[1:])])


# -- decomposition of nonnegative functions ----------------------------------------------


class DecompositionStep(NamedTuple):
    """One stage of the increasing approximation: the new cell a_k, the
    accumulated stage f_k, and (for finite input) the sup coefficient of
    the residual f - f_k."""

    k: int
    cell: str
    stage: SimpleFunction
    residual_sup: Optional[Fraction]


def _difference_upper_at(f: CutFunction, g: CutFunction, c: Fraction) -> str:
    """(f - g)(c,-) evaluated without forming f - g, so it also applies to
    extended f: sup_t f(t,-) /\\ g(-, t - c), a join over the pieces of g
    with f's antitone cut sampled at each piece's lower end b_{j-1} + c.
    The finite g has g.lower[0] = 0, so the piece below b_0 drops out."""
    lat = f.carrier
    acc = lat.bottom
    for bj, gl in zip(g.breakpoints, g.lower[1:]):
        acc = lat.join(acc, lat.meet(f.upper_at(bj + c), gl))
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
    lat = f.carrier
    for v in f.upper:
        if not lat.is_complemented(v):
            raise ComplementationFailure(f"upper cut value {v!r} is not complemented")
    f_simple = cut_to_simple(f) if f.is_finite() else None
    steps: List[DecompositionStep] = []
    fk = zero(lat)
    gk = to_cut_function(fk)
    for k in range(1, horizon + 1):
        cell = _difference_upper_at(f, gk, Fraction(1, k))
        if cell != lat.bottom:
            fk = sf_add(fk, sf_scale(Fraction(1, k), characteristic_simple(cell, lat)))
            gk = to_cut_function(fk)
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
    from 0 to the k-th harmonic sum with gaps of at most 1/k.  The points
    are ints over D = lcm(1, ..., k), where 1/i is D // i."""
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
    return tuple(Fraction(p, den) for p in pts)


def stage_table(f: CutFunction, k: int) -> CutFunction:
    """Expected ladders of stage k read off the witness grid: the value on
    [t_{j-1}, t_j) is f(t_j,-), with complements below."""
    lat = f.carrier
    grid = decomposition_grid(k)
    upper = [lat.top] + [f.upper_at(t) for t in grid[1:]] + [lat.bottom]
    lower = [lat.bottom] + [lat.complement(f.upper_at(t)) for t in grid[1:]] + [lat.top]
    return _cut_function_class()(lat, grid, upper, lower)
