"""Measurable real and extended-real functions as exact rational step ladders.

A function on a finite carrier is stored by its breakpoint grid
t_0 < ... < t_{m-1} together with

* the upper ladder: the cut p -> f(p,-), constant on each [t_i, t_{i+1})
  and on the two unbounded ends (m+1 values, antitone), and
* the lower ladder: q -> f(-,q), constant on each (t_i, t_{i+1}]
  (m+1 values, isotone).

The defining relations of the frame of (extended) reals  --  the cuts meet
to 0 when p >= q and join to 1 when p < q  --  reduce, for step ladders, to
the two interval values being complements of each other; one checker tests
exactly that together with monotonicity, and then normalises away
breakpoints where nothing changes.  Right-/left-constancy of the interval
convention discharges the regularity relations.

Inside, a function is ints: the breakpoints are an ascending int grid over
one denominator D, reduced so that the pair is unique, and the ladders are
tuples of the carrier's J-masks (meet ``&``, join ``|``).  The breakpoints
as ``Fraction``s and the ladders as element names are views built on first
read.  The public constructor resolves names to masks and puts the
breakpoints over one denominator; the kernels hand their int grids and
masks to the same checker, and build a ``Fraction`` or a name only to word
an error.

Suprema over all rationals (in the addition and multiplication formulas)
are evaluated exactly as finite joins: one operand's cut is constant on
each piece of the other's grid, and the other operand's monotone cut
reaches its supremum over that piece at the piece's end.  The operands'
grids go over a common denominator and are merged, sorted and bisected as
ints.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import gcd, lcm
from operator import eq, lt, or_
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .errors import (
    ComplementationFailure,
    ConsistencyError,
    InvalidArgument,
    InvalidScale,
    NegativeOperand,
    NotFinite,
)
from .lattice import FiniteLattice, check_same_carrier
from .rationals import NEG_INF, POS_INF, ZERO, ExtValue, Infinite, over_common_denominator, parse_rational


class CutFunction:
    """An exact step function given by its two cut ladders.

    It holds its carrier, the breakpoints as ints ``_grid`` over a
    denominator ``_den`` and the ladders as J-masks ``_up`` and ``_lo``;
    ``breakpoints``, ``upper`` and ``lower`` are built from them on first
    read (racing threads build equal tuples).  The constructor coerces the
    breakpoints and resolves each ladder value to its J-mask; an unknown
    name raises MalformedDocument, after the ladder lengths and the
    breakpoint order have been checked.  It then runs ``_fill``, the one
    checker, which the kernels reach through ``_from_grid`` with their int
    grids and masks.  The hash is computed on the first ``hash()`` call."""

    __slots__ = ("carrier", "_den", "_grid", "_up", "_lo", "_bp", "_upper", "_lower", "_hash")

    def __init__(self, carrier: FiniteLattice,
                 breakpoints: Sequence[Fraction],
                 upper: Sequence[str],
                 lower: Sequence[str]):
        den, grid = over_common_denominator(
            [b if type(b) is Fraction else parse_rational(b) for b in breakpoints])
        upper, lower = tuple(upper), tuple(lower)
        mask = carrier._mask
        try:
            up, lo = [mask[v] for v in upper], [mask[v] for v in lower]
        except (KeyError, TypeError):  # an unknown name is reported after the shape
            _check_grid(den, grid, len(upper), len(lower))
            up, lo = [carrier.jmask(v) for v in upper], [carrier.jmask(v) for v in lower]
        self._fill(carrier, den, grid, up, lo)

    def _fill(self, carrier: FiniteLattice, den: int, grid: Sequence[int],
              up: Sequence[int], lo: Sequence[int]) -> None:
        """Check, in this order: the ladder lengths, strictly increasing
        breakpoints, antitone upper and isotone lower ladders (mask
        inclusion), and the two cut relations on each interval (the masks
        are disjoint and their union is J(L)).  On the carrier's masks all
        of that holds iff each lower mask is the complement of the upper one
        and the upper ladder is antitone, which is tested first; the loops
        find the first violation.  Then drop the breakpoints across which
        nothing changes and reduce the denominator."""
        _check_grid(den, grid, len(up), len(lo))
        up, lo, full = tuple(up), tuple(lo), carrier._full
        if lo != tuple([full ^ u for u in up]) or not all(map(eq, map(or_, up, up[1:]), up)):
            for i, t in enumerate(grid):
                if up[i + 1] & ~up[i]:
                    raise InvalidScale(f"upper ladder is not antitone across {Fraction(t, den)}")
                if lo[i] & ~lo[i + 1]:
                    raise InvalidScale(f"lower ladder is not isotone across {Fraction(t, den)}")
            at = carrier._at
            for i, (u, l) in enumerate(zip(up, lo)):
                if u & l:
                    raise InvalidScale(
                        f"cut relation (p,-) /\\ (-,q) = 0 fails on interval {i}: "
                        f"{at[u]!r} /\\ {at[l]!r} != bottom")
                if u | l != full:
                    raise InvalidScale(
                        f"cut relation (p,-) \\/ (-,q) = 1 fails on interval {i}: "
                        f"{at[u]!r} \\/ {at[l]!r} != top")
        kept = [i for i in range(len(grid)) if up[i + 1] != up[i]]
        if len(kept) < len(grid):
            pieces = [0] + [i + 1 for i in kept]
            grid = [grid[i] for i in kept]
            up, lo = tuple([up[i] for i in pieces]), tuple([lo[i] for i in pieces])
        common = gcd(den, *grid)
        self.carrier, self._den = carrier, den // common
        self._grid = tuple(grid) if common == 1 else tuple([t // common for t in grid])
        self._up, self._lo = up, lo
        self._bp = self._upper = self._lower = self._hash = None

    # -- views ------------------------------------------------------------------

    @property
    def breakpoints(self) -> Tuple[Fraction, ...]:
        if self._bp is None:
            self._bp = tuple([Fraction(t, self._den) for t in self._grid])
        return self._bp

    @property
    def upper(self) -> Tuple[str, ...]:
        if self._upper is None:
            self._upper = tuple(map(self.carrier._at.__getitem__, self._up))
        return self._upper

    @property
    def lower(self) -> Tuple[str, ...]:
        if self._lower is None:
            self._lower = tuple(map(self.carrier._at.__getitem__, self._lo))
        return self._lower

    # -- evaluation -------------------------------------------------------------

    def upper_at(self, p: Fraction) -> str:
        """f(p,-); right-constant in p."""
        return self.carrier._at[self._upper_mask_at(*p.as_integer_ratio())]

    def lower_at(self, q: Fraction) -> str:
        """f(-,q); left-constant in q: the breakpoints t with t < n/d are
        the ints below ceil(n * D / d)."""
        n, d = q.as_integer_ratio()
        return self.carrier._at[self._lo[bisect_left(self._grid, -(-n * self._den // d))]]

    def _upper_mask_at(self, n: int, d: int) -> int:
        """The mask of f(n/d,-) for d > 0: the breakpoints t with t <= n/d
        are the ints up to floor(n * D / d)."""
        return self._up[bisect_right(self._grid, n * self._den // d)]

    def _cells(self) -> List[int]:
        """The mask of each level cell: where f equals its j-th breakpoint,
        upper[j] /\\ lower[j+1], and last where f is +inf, upper[-1]."""
        return [u & l for u, l in zip(self._up, self._lo[1:])] + [self._up[-1]]

    def _point_values(self) -> Tuple[int, List[ExtValue]]:
        """(D, the value at each bit of the carrier): the breakpoint (times
        D) of the cell holding the bit, +inf where the upper ladder always
        holds it and -inf where it never does."""
        up, vals = self._up, []
        for b in range(self.carrier._full.bit_length()):
            k = sum(u >> b & 1 for u in up)  # the ladder is antitone: up[:k] hold b
            vals.append(NEG_INF if not k else POS_INF if k == len(up) else self._grid[k - 1])
        return self._den, vals

    def is_finite(self) -> bool:
        return self._up[0] == self._lo[-1] == self.carrier._full

    def is_nonnegative(self) -> bool:
        """f >= 0, i.e. f(p,-) = 1 for every p < 0."""
        return self._up[bisect_left(self._grid, 0)] == self.carrier._full

    def __eq__(self, other) -> bool:
        return (isinstance(other, CutFunction)
                and (self._den, self._grid, self._up) == (other._den, other._grid, other._up)
                and (self.carrier is other.carrier or self.carrier == other.carrier))

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.breakpoints, self.upper))
        return self._hash

    def __repr__(self) -> str:
        pieces = ", ".join(f"{b}:{u}" for b, u in zip(self.breakpoints, self.upper[1:]))
        return f"CutFunction(upper={self.upper[0]}|{pieces})"


def _check_grid(den: int, grid: Sequence[int], n_up: int, n_lo: int) -> None:
    """The ladder lengths, then strictly increasing breakpoints."""
    if n_up != len(grid) + 1 or n_lo != len(grid) + 1:
        raise InvalidScale("each ladder needs exactly one value per interval")
    if not all(map(lt, grid, grid[1:])):
        i = next(i for i in range(len(grid) - 1) if not grid[i] < grid[i + 1])
        raise InvalidScale(f"breakpoints not strictly increasing at {Fraction(grid[i], den)}")


def _from_grid(carrier: FiniteLattice, den: int, grid: Sequence[int],
               up: Sequence[int], lo: Sequence[int]) -> CutFunction:
    """The function with breakpoints grid[i] / den (den > 0) and ladders of
    J-masks, through the constructor's checks."""
    f = CutFunction.__new__(CutFunction)
    f._fill(carrier, den, grid, up, lo)
    return f


# -- int grids: breakpoints times a common denominator D ----------------------------


def _int_grids(fs: Sequence[CutFunction]) -> Tuple[int, List[Sequence[int]]]:
    """(D, each function's breakpoints times D), D the least common multiple
    of the functions' denominators."""
    den = lcm(*[f._den for f in fs])
    return den, [f._grid if f._den == den else [t * (den // f._den) for t in f._grid]
                 for f in fs]


def _reps(grid: Sequence[int], den: int) -> Tuple[List[int], List[int]]:
    """One int per piece of the right-constant (upper) and of the
    left-constant (lower) ladders on a sorted int grid."""
    return ([grid[0] - den, *grid], [*grid, grid[-1] + den]) if grid else ([0], [0])


_DIFFERENT_CARRIERS = "the two functions live on different carriers"


# -- generators -------------------------------------------------------------------


def constant(value: ExtValue, carrier: FiniteLattice) -> CutFunction:
    """The (extended) constant function: (p,-) is top iff p < value."""
    full = carrier._full
    if isinstance(value, Infinite):
        up = full if value.sign > 0 else 0
        return _from_grid(carrier, 1, (), (up,), (full ^ up,))
    n, d = parse_rational(value).as_integer_ratio()
    return _from_grid(carrier, d, (n,), (full, 0), (0, full))


def characteristic(a: str, carrier: FiniteLattice) -> CutFunction:
    """chi_a for complemented a: 1 on p < 0, a on [0,1), 0 from 1 on."""
    ac = carrier.jmask(carrier.complement(a))
    full = carrier._full
    return _from_grid(carrier, 1, (0, 1), (full, full ^ ac, 0), (0, ac, full))


# -- order and lattice operations ---------------------------------------------------


def _merged_pieces(f: CutFunction, g: CutFunction):
    """(D, merged int grid, (f, g) mask pairs per upper piece, and per
    lower piece)."""
    check_same_carrier(f.carrier, g.carrier, _DIFFERENT_CARRIERS)
    den, (fb, gb) = _int_grids((f, g))
    grid = sorted({*fb, *gb})
    ur, lr = _reps(grid, den)
    fu, fl, gu, gl = f._up, f._lo, g._up, g._lo
    ups = [(fu[bisect_right(fb, p)], gu[bisect_right(gb, p)]) for p in ur]
    lows = [(fl[bisect_left(fb, q)], gl[bisect_left(gb, q)]) for q in lr]
    return den, grid, ups, lows


def leq(f: CutFunction, g: CutFunction) -> bool:
    """f <= g iff f(p,-) <= g(p,-) everywhere; the dual lower-ladder
    comparison is computed as well and cross-checked."""
    _, _, ups, lows = _merged_pieces(f, g)
    by_upper = all(not fu & ~gu for fu, gu in ups)
    by_lower = all(not gl & ~fl for fl, gl in lows)
    if by_upper != by_lower:
        raise ConsistencyError("upper and lower order tests disagree")
    return by_upper


def join_meet(f: CutFunction, g: CutFunction) -> Tuple[CutFunction, CutFunction]:
    """(f \\/ g, f /\\ g) computed pointwise on the merged grid."""
    den, grid, ups, lows = _merged_pieces(f, g)
    lat = f.carrier
    fj = _from_grid(lat, den, grid, [a | b for a, b in ups], [a & b for a, b in lows])
    fm = _from_grid(lat, den, grid, [a & b for a, b in ups], [a | b for a, b in lows])
    return fj, fm


# -- ring operations ------------------------------------------------------------------


def negate(f: CutFunction) -> CutFunction:
    """(-f)(p,-) = f(-,-p): mirror the grid and swap the ladders."""
    return _from_grid(f.carrier, f._den, [-t for t in f._grid[::-1]], f._lo[::-1], f._up[::-1])


def scale(lam: Fraction, f: CutFunction) -> CutFunction:
    """lam * f via (lam f)(p,-) = f(p/lam,-) for lam > 0; negation composed
    in for lam < 0; the zero scalar collapses to the constant 0."""
    n, d = parse_rational(lam).as_integer_ratio()
    if not n:
        return constant(ZERO, f.carrier)
    g = _from_grid(f.carrier, f._den * d, [t * abs(n) for t in f._grid], f._up, f._lo)
    return g if n > 0 else negate(g)


def add(f: CutFunction, g: CutFunction) -> CutFunction:
    """f + g by the convolution formulas
    (f+g)(-,q) = sup_t f(-,t) /\\ g(-,q-t)  and dually for the upper cuts.

    Each supremum is a join over the pieces of g, on which g's cut is
    constant; f's monotone cut reaches its supremum over a piece at the
    piece's end, so f is sampled there once.  With b the breakpoints of g:
    (f+g)(-,q) = \\/_j f(-, q - b_{j-1}) /\\ g.lower[j] and
    (f+g)(p,-) = \\/_j f(p - b_j, -) /\\ g.upper[j].  The unbounded end
    pieces drop out, because g is finite: g.lower[0] = g.upper[-1] = 0."""
    check_same_carrier(f.carrier, g.carrier, _DIFFERENT_CARRIERS)
    if not (f.is_finite() and g.is_finite()):
        raise NotFinite("addition is defined for finite functions only")
    if not f._grid or not g._grid:
        return f  # only over the one-element carrier
    den, (fb, gb) = _int_grids((f, g))
    grid = sorted({x + y for x in fb for y in gb})
    fu, fl = f._up, f._lo
    g_lower = list(zip(gb, g._lo[1:]))
    g_upper = list(zip(gb, g._up))
    ur, lr = _reps(grid, den)
    lower = []
    for q in lr:
        acc = 0
        for bj, gl in g_lower:
            acc |= fl[bisect_left(fb, q - bj)] & gl
        lower.append(acc)
    upper = []
    for p in ur:
        acc = 0
        for bj, gu in g_upper:
            acc |= fu[bisect_right(fb, p - bj)] & gu
        upper.append(acc)
    return _from_grid(f.carrier, den, grid, upper, lower)


def mul_nonneg(f: CutFunction, g: CutFunction) -> CutFunction:
    """f * g for nonnegative finite operands, by the case-split formulas:
    (fg)(p,-) is top for p < 0 and sup_{s>0} f(s,-) /\\ g(p/s,-) otherwise;
    (fg)(-,q) is bottom for q <= 0 and sup_{s>0} f(-,s) /\\ g(-,q/s) otherwise.

    As in ``add``, each supremum is a join over the pieces of g, here those
    meeting (0, +inf), with f sampled once at the end of each piece: at
    q/b_{j-1} for the lower cuts (+inf on the piece reaching down to 0) and
    at p/b_j for the upper cuts (the unbounded piece drops out, as g is
    finite).  The products are ints over D * D, and for an int a of f's
    grid a < q/b_j iff a < ceil(q/b_j), a <= p/b_j iff a <= floor(p/b_j)."""
    check_same_carrier(f.carrier, g.carrier, _DIFFERENT_CARRIERS)
    if not (f.is_nonnegative() and g.is_nonnegative()):
        raise NegativeOperand("multiplication needs nonnegative operands")
    if not (f.is_finite() and g.is_finite()):
        raise NotFinite("multiplication is defined for finite functions only")
    if not f._grid or not g._grid:
        return f
    den, (fb, gb) = _int_grids((f, g))
    first = bisect_right(gb, 0)  # the piece of g reaching down to 0
    pos = gb[first:]
    grid = sorted({0} | {x * y for x in fb if x > 0 for y in pos})
    fu, fl = f._up, f._lo
    g_lower = g._lo[first:]
    g_upper = list(zip(pos, g._up[first:]))
    ur, lr = _reps(grid, den * den)
    lower = []
    for q in lr:
        if q <= 0:
            lower.append(0)
            continue
        acc = fl[-1] & g_lower[0]
        for bj, gl in zip(pos, g_lower[1:]):
            acc |= fl[bisect_left(fb, -(-q // bj))] & gl
        lower.append(acc)
    full = f.carrier._full
    upper = []
    for p in ur:
        if p < 0:
            upper.append(full)
            continue
        acc = 0
        for bj, gu in g_upper:
            acc |= fu[bisect_right(fb, p // bj)] & gu
        upper.append(acc)
    return _from_grid(f.carrier, den * den, grid, upper, lower)


# -- countable (here: finite) lattice operations ----------------------------------------


def seq_inf(fs: Sequence[CutFunction]) -> CutFunction:
    """Meet of a finite family: the lower cuts are the joins
    sup_n f_n(-,q), which must be complemented; the upper cuts are their
    complements (the value of sup_{r>p} (sup_n f_n(-,r))^c on each interval)."""
    lat, den, grid, lower, upper = _join_cuts(fs, "seq_inf", upper=False)
    return _from_grid(lat, den, grid, upper, lower)


def seq_sup(fs: Sequence[CutFunction]) -> CutFunction:
    """Join of a finite family; dual to seq_inf on the upper ladders."""
    lat, den, grid, upper, lower = _join_cuts(fs, "seq_sup", upper=True)
    return _from_grid(lat, den, grid, upper, lower)


def _join_cuts(fs: Sequence[CutFunction], name: str, upper: bool):
    """(carrier, D, merged int grid, joins, complements): the join over the
    family of the upper (or lower) cuts at each piece of the merged grid,
    and the complement of each, as masks."""
    fs = list(fs)
    if not fs:
        raise InvalidArgument(f"{name} needs at least one function")
    for g in fs[1:]:
        check_same_carrier(fs[0].carrier, g.carrier, _DIFFERENT_CARRIERS)
    lat = fs[0].carrier
    at, full = lat._at, lat._full
    den, grids = _int_grids(fs)
    grid = sorted({t for fb in grids for t in fb})
    ur, lr = _reps(grid, den)
    if upper:
        reps, cut, label = ur, bisect_right, "upper cuts at p"
    else:
        reps, cut, label = lr, bisect_left, "lower cuts at q"
    family = [(fb, f._up if upper else f._lo) for fb, f in zip(grids, fs)]
    joined = []
    for t in reps:
        acc = 0
        for fb, ladder in family:
            acc |= ladder[cut(fb, t)]
        if (full ^ acc) not in at:
            raise ComplementationFailure(
                f"sup of {label}={Fraction(t, den)} is not complemented "
                f"(element {at[acc]!r})")
        joined.append(acc)
    return lat, den, grid, joined, [full ^ m for m in joined]


# -- sequences and limits -------------------------------------------------------------


class _FunctionSequenceFields(NamedTuple):
    prefix: Tuple[CutFunction, ...]
    tail: CutFunction


class FunctionSequence(_FunctionSequenceFields):
    """A sequence given by a finite prefix and a declared constant tail;
    the k-th member is prefix[k] for k below len(prefix) and the tail from
    there on."""

    __slots__ = ()

    def __new__(cls, prefix: Tuple[CutFunction, ...], tail: CutFunction):
        prefix = tuple(prefix)
        for f in prefix:
            check_same_carrier(f.carrier, tail.carrier, _DIFFERENT_CARRIERS)
        return super().__new__(cls, prefix, tail)

    @classmethod
    def _make(cls, fields):  # so that _replace runs the check as well
        return cls(*fields)

    def at(self, k: int) -> CutFunction:
        return self.prefix[k] if k < len(self.prefix) else self.tail


def limits(seq: FunctionSequence) -> Tuple[CutFunction, CutFunction, Optional[CutFunction]]:
    """(liminf, limsup, lim or None), computed by the defining formulas
    liminf = sup_n inf_{k>=n} and limsup = inf_n sup_{k>=n}; every inner
    family is the finite prefix remainder plus the constant tail."""
    tails = [list(seq.prefix[n:]) + [seq.tail] for n in range(len(seq.prefix) + 1)]
    liminf = seq_sup([seq_inf(fam) for fam in tails])
    limsup = seq_inf([seq_sup(fam) for fam in tails])
    lim = liminf if liminf == limsup else None
    return liminf, limsup, lim
