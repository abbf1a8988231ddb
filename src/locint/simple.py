"""Simple functions: finite rational combinations of characteristic functions.

The canonical form of a simple function lists strictly ascending rational
coefficients over a pairwise-disjoint complemented cover of the top.  Two
simple functions are equal exactly when their canonical term lists agree.
All ring operations work on the common refinement of the two covers and
re-canonicalise; arbitrary (overlapping) representations are brought to
canonical form by splitting the top into the cells of the Boolean
subalgebra generated by the mentioned elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .cutfunction import CutFunction
from .errors import (
    CarrierMismatch,
    ComplementationFailure,
    ConsistencyError,
    InvalidArgument,
    MalformedDocument,
    NotFinite,
    NotNonnegative,
)
from .lattice import FiniteLattice


class SimpleFunction:
    """A simple function in canonical form.

    The constructor only checks canonicity.  Use ``canonicalize`` (or the
    arithmetic in this module) to build instances from raw term lists.
    """

    __slots__ = ("carrier", "terms", "_hash")

    def __init__(self, carrier: FiniteLattice, terms: Sequence[Tuple[Fraction, str]]):
        if carrier.top == carrier.bottom:
            raise MalformedDocument("simple functions need a carrier with 0 != 1")
        terms = tuple((r if isinstance(r, Fraction) else Fraction(r), a) for r, a in terms)
        if not terms:
            raise ConsistencyError("canonical form cannot be empty; zero is (0, top)")
        if not _is_canonical(carrier, terms):
            _raise_first_violation(carrier, terms)
        self.carrier = carrier
        self.terms = terms
        self._hash = hash(terms)

    def coefficients(self) -> Tuple[Fraction, ...]:
        return tuple(r for r, _ in self.terms)

    def elements(self) -> Tuple[str, ...]:
        return tuple(a for _, a in self.terms)

    def is_nonnegative(self) -> bool:
        return self.terms[0][0] >= 0

    def is_zero(self) -> bool:
        return len(self.terms) == 1 and self.terms[0][0] == 0

    def __eq__(self, other) -> bool:
        return (isinstance(other, SimpleFunction)
                and self.terms == other.terms
                and (self.carrier is other.carrier or self.carrier == other.carrier))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return " + ".join(f"{r}*chi({a})" for r, a in self.terms)


def _is_canonical(carrier: FiniteLattice, terms: Sequence[Tuple[Fraction, str]]) -> bool:
    """Fast path, O(t) on the index tables: ascending coefficients, and
    each a_k complemented, nonzero and disjoint from a_1 \\/ ... \\/ a_{k-1}
    (pairwise disjointness, by distributivity), with the join reaching top."""
    idx, meet, join, comp = carrier._idx, carrier._meet, carrier._join, carrier._comp
    bot = carrier._bottom
    cover = bot
    prev = None
    for r, a in terms:
        i = idx.get(a)
        if (i is None or i == bot or comp[i] is None or meet[i][cover] != bot
                or (prev is not None and not prev < r)):
            return False
        cover = join[cover][i]
        prev = r
    return cover == carrier._top


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


def from_cells(carrier: FiniteLattice, cells: Dict[str, Fraction]) -> SimpleFunction:
    """Canonical form from a disjoint cover: merge equal-coefficient cells
    by join and sort.  ``cells`` maps cell element -> coefficient."""
    by_coeff: Dict[Fraction, str] = {}
    for cell, r in cells.items():
        if cell == carrier.bottom:
            continue
        by_coeff[r] = carrier.join(by_coeff[r], cell) if r in by_coeff else cell
    if not by_coeff:
        return SimpleFunction(carrier, ((Fraction(0), carrier.top),))
    return SimpleFunction(carrier, tuple(sorted(by_coeff.items())))


def canonicalize(carrier: FiniteLattice, terms: Iterable[Tuple[Fraction, str]]) -> SimpleFunction:
    """Canonical form of an arbitrary sum of scaled characteristics.

    The top is split into the cells of the subalgebra generated by the
    mentioned elements; each term adds its coefficient to the cells below
    its element, and cells (including the residual coefficient-0 cell)
    are regrouped by coefficient."""
    cells: Dict[str, Fraction] = {carrier.top: Fraction(0)}
    for r, a in terms:
        ac = carrier.complement(a)  # NotComplemented for bad terms
        r = Fraction(r)
        nxt: Dict[str, Fraction] = {}
        for cell, coeff in cells.items():
            inside = carrier.meet(cell, a)
            outside = carrier.meet(cell, ac)
            if inside != carrier.bottom:
                nxt[inside] = coeff + r
            if outside != carrier.bottom:
                nxt[outside] = coeff
        cells = nxt
    return from_cells(carrier, cells)


def zero(carrier: FiniteLattice) -> SimpleFunction:
    return SimpleFunction(carrier, ((Fraction(0), carrier.top),))


def constant_simple(r: Fraction, carrier: FiniteLattice) -> SimpleFunction:
    return SimpleFunction(carrier, ((Fraction(r), carrier.top),))


def characteristic_simple(a: str, carrier: FiniteLattice) -> SimpleFunction:
    return canonicalize(carrier, ((Fraction(1), a),))


# -- ring structure ------------------------------------------------------------------


def _same_carrier(g: SimpleFunction, h: SimpleFunction) -> None:
    if g.carrier is not h.carrier and g.carrier != h.carrier:
        raise CarrierMismatch("the two simple functions live on different carriers")


def sf_add(g: SimpleFunction, h: SimpleFunction) -> SimpleFunction:
    """Sum over the common refinement: (r_i + s_j) on a_i /\\ b_j."""
    _same_carrier(g, h)
    lat = g.carrier
    cells: Dict[str, Fraction] = {}
    for r, a in g.terms:
        for s, b in h.terms:
            cell = lat.meet(a, b)
            if cell != lat.bottom:
                cells[cell] = r + s
    return from_cells(lat, cells)


def sf_mul(g: SimpleFunction, h: SimpleFunction) -> SimpleFunction:
    """Product over the common refinement: (r_i * s_j) on a_i /\\ b_j;
    valid for all signs."""
    _same_carrier(g, h)
    lat = g.carrier
    cells: Dict[str, Fraction] = {}
    for r, a in g.terms:
        for s, b in h.terms:
            cell = lat.meet(a, b)
            if cell != lat.bottom:
                cells[cell] = r * s
    return from_cells(lat, cells)


def sf_scale(lam: Fraction, g: SimpleFunction) -> SimpleFunction:
    """lam * g; the scaled terms are canonical already (in reverse order
    when lam < 0), so nothing is regrouped."""
    lam = Fraction(lam)
    if lam == 0:
        return zero(g.carrier)
    terms = [(lam * r, a) for r, a in g.terms]
    return SimpleFunction(g.carrier, terms if lam > 0 else terms[::-1])


def sf_neg(g: SimpleFunction) -> SimpleFunction:
    return sf_scale(Fraction(-1), g)


def positive_part(g: SimpleFunction) -> SimpleFunction:
    return from_cells(g.carrier, {a: r if r > 0 else Fraction(0) for r, a in g.terms})


def negative_part(g: SimpleFunction) -> SimpleFunction:
    return from_cells(g.carrier, {a: -r if r < 0 else Fraction(0) for r, a in g.terms})


def abs_simple(g: SimpleFunction) -> SimpleFunction:
    return sf_add(positive_part(g), negative_part(g))


# -- the two-way bridge to cut ladders --------------------------------------------------


def to_cut_function(g: SimpleFunction) -> CutFunction:
    """Closed-form ladders of a canonical simple function: the lower cuts
    step through the prefix joins of the cover at each coefficient, the
    upper cuts through the suffix joins."""
    lat = g.carrier
    n = len(g.terms)
    lower = [lat.bottom]
    acc = lat.bottom
    for _, a in g.terms:
        acc = lat.join(acc, a)
        lower.append(acc)
    upper = [lat.bottom] * (n + 1)
    acc = lat.bottom
    for i in range(n - 1, -1, -1):
        acc = lat.join(acc, g.terms[i][1])
        upper[i] = acc
    return CutFunction(lat, g.coefficients(), upper, lower)


def cut_to_simple(f: CutFunction) -> SimpleFunction:
    """Invert the closed-form table: the cell where f equals the j-th
    breakpoint is upper[j] /\\ lower[j+1].  Total on finite functions."""
    if not f.is_finite():
        raise NotFinite("only finite functions are simple")
    lat = f.carrier
    terms = []
    for j, r in enumerate(f.breakpoints):
        cell = lat.meet(f.upper[j], f.lower[j + 1])
        terms.append((r, cell))
    return SimpleFunction(lat, terms)


# -- decomposition of nonnegative functions ----------------------------------------------


@dataclass(frozen=True)
class DecompositionStep:
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
    a_k = (f - f_{k-1})(1/k,-), recorded step by step."""
    if horizon < 1:
        raise InvalidArgument("horizon must be at least 1")
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
    from 0 to the k-th harmonic sum with gaps of at most 1/k."""
    pts = [Fraction(0), Fraction(1)]
    for i in range(2, k + 1):
        step = Fraction(1, i)
        refined = set(pts)
        for j in range(1, len(pts)):
            candidate = pts[j - 1] + step
            if candidate < pts[j]:
                refined.add(candidate)
        refined.add(pts[-1] + step)
        pts = sorted(refined)
    return tuple(pts)


def stage_table(f: CutFunction, k: int) -> CutFunction:
    """Expected ladders of stage k read off the witness grid: the value on
    [t_{j-1}, t_j) is f(t_j,-), with complements below."""
    lat = f.carrier
    grid = decomposition_grid(k)
    upper = [lat.top] + [f.upper_at(t) for t in grid[1:]] + [lat.bottom]
    lower = [lat.bottom] + [lat.complement(f.upper_at(t)) for t in grid[1:]] + [lat.top]
    return CutFunction(lat, grid, upper, lower)
