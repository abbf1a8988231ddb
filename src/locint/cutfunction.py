"""Measurable real and extended-real functions as exact rational step ladders.

A function on a finite carrier is stored by its breakpoint grid
t_0 < ... < t_{m-1} together with its upper ladder: the cut p -> f(p,-),
constant on each [t_i, t_{i+1}) and on the two unbounded ends (m+1
values, antitone).

The defining relations of the frame of (extended) reals  --  the cuts meet
to 0 when p >= q and join to 1 when p < q  --  reduce, for step ladders, to
each value of the lower ladder q -> f(-,q), constant on each
(t_i, t_{i+1}], being the complement of the upper value on the same
interval.  So the lower ladder is not stored: it is a view, the
complement of the upper ladder, and the public constructor, which takes
one, checks it against the cut relations.  One checker tests the grid
and that the upper ladder is antitone, and then normalises away
breakpoints where nothing changes.  Right-/left-constancy of the interval
convention discharges the regularity relations.

Inside, a function is ints: the breakpoints are an ascending int grid over
one denominator D, reduced so that the pair is unique, and the upper
ladder is a tuple of the carrier's J-masks (meet ``&``, join ``|``,
complement ``^`` J(L)).  The breakpoints as ``Fraction``s and the ladders
as element names are views built on first read.  The public constructor
resolves names to masks and puts the breakpoints over one denominator; the
kernels hand their int grids and upper masks to the same checker, and
build a ``Fraction`` or a name only to word an error.  One builder,
``_from_reduced``, skips the checker: its one caller,
``simple.to_cut_function``, passes a grid and ladder that the checker
would pass unchanged.

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
from functools import reduce
from math import gcd, lcm
from operator import and_, eq, floordiv, lt, or_, sub
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import InvalidArgument, InvalidScale, NegativeOperand, NotFinite
from .lattice import FiniteLattice, check_same_carrier
from .rationals import NEG_INF, POS_INF, ZERO, ExtValue, Infinite, over_common_denominator, parse_rational


class CutFunction:
    """An exact step function given by its upper cut ladder.

    It holds its carrier, the breakpoints as ints ``_grid`` over a
    denominator ``_den`` and the upper ladder as J-masks ``_up``;
    ``breakpoints``, ``upper`` and ``lower`` (the complements of the upper
    values) are built from them on first read (racing threads build equal
    tuples).  The constructor coerces the breakpoints and resolves each
    value of both ladders to its J-mask; an unknown name raises
    MalformedDocument, after the ladder lengths and the breakpoint order
    have been checked.  A lower ladder that is not the complement of the
    upper one fails the cut relations, and the constructor names its first
    fault: the ladder lengths, the breakpoint order, an upper ladder that
    is not antitone or a lower one that is not isotone, then the two cut
    relations on each interval.  Otherwise it runs ``_fill``, the one
    checker, which the kernels reach through ``_from_grid`` with their int
    grids and upper masks; only ``simple.to_cut_function`` builds through
    ``_from_reduced``, unchecked, as its ladders are valid and reduced by
    construction.  The hash is computed on the first ``hash()`` call."""

    __slots__ = ("carrier", "_den", "_grid", "_up", "_bp", "_upper", "_lower", "_hash")

    def __init__(self, carrier: FiniteLattice,
                 breakpoints: Sequence[Fraction],
                 upper: Sequence[str],
                 lower: Sequence[str]):
        den, grid = over_common_denominator(
            [b if type(b) is Fraction else parse_rational(b) for b in breakpoints])
        upper, lower = tuple(upper), tuple(lower)
        mask, full = carrier._mask, carrier._full
        try:
            up, lo = [mask[v] for v in upper], [mask[v] for v in lower]
        except (KeyError, TypeError):  # an unknown name is reported after the shape
            _check_grid(den, grid, len(upper), len(lower))
            up, lo = [carrier.jmask(v) for v in upper], [carrier.jmask(v) for v in lower]
        if lo != [full ^ u for u in up]:  # some check below fails; name the first
            _check_grid(den, grid, len(up), len(lo))
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
        self._fill(carrier, den, grid, up)

    def _fill(self, carrier: FiniteLattice, den: int, grid: Sequence[int],
              up: Sequence[int]) -> None:
        """Check, in this order: the ladder length, strictly increasing
        breakpoints and an antitone upper ladder (mask inclusion).  Then
        drop the breakpoints across which nothing changes and reduce the
        denominator."""
        _check_grid(den, grid, len(up))
        up = tuple(up)
        if not all(map(eq, map(or_, up, up[1:]), up)):
            i = next(i for i in range(len(grid)) if up[i + 1] & ~up[i])
            raise InvalidScale(f"upper ladder is not antitone across {Fraction(grid[i], den)}")
        kept = [i for i in range(len(grid)) if up[i + 1] != up[i]]
        if len(kept) < len(grid):
            up = tuple([up[0]] + [up[i + 1] for i in kept])
            grid = [grid[i] for i in kept]
        common = gcd(den, *grid)
        _put(self, carrier, den // common, grid if common == 1 else [t // common for t in grid], up)

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
        """f(-,q) on each interval: the complement of the upper value there."""
        if self._lower is None:
            at, full = self.carrier._at, self.carrier._full
            self._lower = tuple([at[full ^ u] for u in self._up])
        return self._lower

    # -- evaluation -------------------------------------------------------------

    def upper_at(self, p: Fraction) -> str:
        """f(p,-); right-constant in p."""
        return self.carrier._at[self._upper_mask_at(*p.as_integer_ratio())]

    def lower_at(self, q: Fraction) -> str:
        """f(-,q), the complement of f(q',-) for q' just below q; left-constant
        in q: the breakpoints t with t < n/d are the ints below
        ceil(n * D / d)."""
        n, d = q.as_integer_ratio()
        lat = self.carrier
        return lat._at[lat._full ^ self._up[bisect_left(self._grid, -(-n * self._den // d))]]

    def _upper_mask_at(self, n: int, d: int) -> int:
        """The mask of f(n/d,-) for d > 0: the breakpoints t with t <= n/d
        are the ints up to floor(n * D / d)."""
        return self._up[bisect_right(self._grid, n * self._den // d)]

    def _cells(self) -> List[int]:
        """The mask of each level cell: where f equals its j-th breakpoint,
        upper[j] /\\ lower[j+1], lower[j+1] the complement of upper[j+1],
        and last where f is +inf, upper[-1]."""
        up, full = self._up, self.carrier._full
        return [u & (full ^ v) for u, v in zip(up, up[1:])] + [up[-1]]

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
        """f(p,-) = 1 below the grid and 0 above it, where f(-,q) = 1."""
        return self._up[0] == self.carrier._full and not self._up[-1]

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


def _check_grid(den: int, grid: Sequence[int], *lengths: int) -> None:
    """The ladder lengths, then strictly increasing breakpoints."""
    if {*lengths} != {len(grid) + 1}:
        raise InvalidScale("each ladder needs exactly one value per interval")
    if not all(map(lt, grid, grid[1:])):
        i = next(i for i in range(len(grid) - 1) if not grid[i] < grid[i + 1])
        raise InvalidScale(f"breakpoints not strictly increasing at {Fraction(grid[i], den)}")


def _from_grid(carrier: FiniteLattice, den: int, grid: Sequence[int],
               up: Sequence[int]) -> CutFunction:
    """The function with breakpoints grid[i] / den (den > 0) and an upper
    ladder of J-masks, each complemented, through ``_fill``."""
    f = CutFunction.__new__(CutFunction)
    f._fill(carrier, den, grid, up)
    return f


def _from_reduced(carrier: FiniteLattice, den: int, grid: Sequence[int], up: Sequence[int]) -> CutFunction:
    """As ``_from_grid``, unchecked, for a grid and ladder that ``_fill``
    would pass unchanged: a strictly increasing grid with gcd(den, grid)
    = 1 and a strictly decreasing upper ladder of complemented masks.
    ``simple.to_cut_function`` alone calls it, with the distinct values of
    a reduced vector and the top minus the levels of the values passed."""
    return _put(CutFunction.__new__(CutFunction), carrier, den, grid, up)


def _put(f, carrier: FiniteLattice, den: int, grid: Sequence[int], up: Sequence[int]) -> CutFunction:
    """Fill the slots of f, the views left to be built on first read."""
    f.carrier, f._den, f._grid, f._up = carrier, den, tuple(grid), tuple(up)
    f._bp = f._upper = f._lower = f._hash = None
    return f


# -- int grids: breakpoints times a common denominator D ----------------------------


def _int_grids(fs: Sequence[CutFunction]) -> Tuple[int, List[Sequence[int]]]:
    """(D, each function's breakpoints times D), D the least common multiple
    of the functions' denominators."""
    den = lcm(*[f._den for f in fs])
    return den, [f._grid if f._den == den else [t * (den // f._den) for t in f._grid]
                 for f in fs]


def _reps(grid: Sequence[int], den: int) -> List[int]:
    """One int per piece of a right-constant (upper) ladder on a sorted int
    grid."""
    return [grid[0] - den, *grid] if grid else [0]


_DIFFERENT_CARRIERS = "the two functions live on different carriers"


# -- generators -------------------------------------------------------------------


def constant(value: ExtValue, carrier: FiniteLattice) -> CutFunction:
    """The (extended) constant function: (p,-) is top iff p < value."""
    full = carrier._full
    if isinstance(value, Infinite):
        up = full if value.sign > 0 else 0
        return _from_grid(carrier, 1, (), (up,))
    n, d = parse_rational(value).as_integer_ratio()
    return _from_grid(carrier, d, (n,), (full, 0))


def characteristic(a: str, carrier: FiniteLattice) -> CutFunction:
    """chi_a for complemented a: 1 on p < 0, a on [0,1), 0 from 1 on."""
    m, full = carrier.jmask(a), carrier._full
    if full ^ m not in carrier._at:
        carrier.complement(a)  # raises NotComplemented, naming a
    return _from_grid(carrier, 1, (0, 1), (full, m, 0))


# -- order and lattice operations ---------------------------------------------------


def _sample(fs: Sequence[CutFunction]) -> Tuple[int, List[int], List[Tuple[int, ...]]]:
    """(D, the family's merged int grid, per piece the tuple of each
    function's upper mask there), after the carriers are checked."""
    for g in fs[1:]:
        check_same_carrier(fs[0].carrier, g.carrier, _DIFFERENT_CARRIERS)
    den, grids = _int_grids(fs)
    grid = sorted({t for fb in grids for t in fb})
    reps = _reps(grid, den)
    cuts = [[f._up[bisect_right(fb, p)] for p in reps] for fb, f in zip(grids, fs)]
    return den, grid, list(zip(*cuts))


def leq(f: CutFunction, g: CutFunction) -> bool:
    """f <= g iff f(p,-) <= g(p,-) everywhere."""
    return all(not fu & ~gu for fu, gu in _sample((f, g))[2])


def join_meet(f: CutFunction, g: CutFunction) -> Tuple[CutFunction, CutFunction]:
    """(f \\/ g, f /\\ g) computed pointwise on the merged grid."""
    den, grid, ups = _sample((f, g))
    lat = f.carrier
    return (_from_grid(lat, den, grid, [a | b for a, b in ups]),
            _from_grid(lat, den, grid, [a & b for a, b in ups]))


# -- ring operations ------------------------------------------------------------------


def negate(f: CutFunction) -> CutFunction:
    """(-f)(p,-) = f(-,-p): mirror the grid and the complements of the
    upper ladder."""
    full = f.carrier._full
    return _from_grid(f.carrier, f._den, [-t for t in f._grid[::-1]],
                      [full ^ u for u in f._up[::-1]])


def scale(lam: Fraction, f: CutFunction) -> CutFunction:
    """lam * f via (lam f)(p,-) = f(p/lam,-) for lam > 0; negation composed
    in for lam < 0; the zero scalar collapses to the constant 0."""
    n, d = parse_rational(lam).as_integer_ratio()
    if not n:
        return constant(ZERO, f.carrier)
    g = _from_grid(f.carrier, f._den * d, [t * abs(n) for t in f._grid], f._up)
    return g if n > 0 else negate(g)


def _convolve(f: CutFunction, fb: Sequence[int], pieces, reps: Sequence[int], at) -> List[int]:
    """The upper cut at each p of reps: \\/_j f(at(p, b_j), -) /\\ u_j over
    the other operand's pieces (b_j, u_j), f's breakpoints being fb."""
    fu = f._up
    upper = []
    for p in reps:
        acc = 0
        for bj, gu in pieces:
            acc |= fu[bisect_right(fb, at(p, bj))] & gu
        upper.append(acc)
    return upper


def add(f: CutFunction, g: CutFunction) -> CutFunction:
    """f + g by the convolution formula
    (f+g)(p,-) = sup_t f(t,-) /\\ g(p-t,-).

    The supremum is a join over the pieces of g, on which g's cut is
    constant; f's monotone cut reaches its supremum over a piece at the
    piece's end, so f is sampled there once.  With b the breakpoints of g:
    (f+g)(p,-) = \\/_j f(p - b_j, -) /\\ g.upper[j].  The unbounded end
    piece drops out, because g is finite: g.upper[-1] = 0."""
    check_same_carrier(f.carrier, g.carrier, _DIFFERENT_CARRIERS)
    if not (f.is_finite() and g.is_finite()):
        raise NotFinite("addition is defined for finite functions only")
    if not f._grid or not g._grid:
        return f  # only over the one-element carrier
    den, (fb, gb) = _int_grids((f, g))
    grid = sorted({x + y for x in fb for y in gb})
    upper = _convolve(f, fb, list(zip(gb, g._up)), _reps(grid, den), sub)
    return _from_grid(f.carrier, den, grid, upper)


def mul_nonneg(f: CutFunction, g: CutFunction) -> CutFunction:
    """f * g for nonnegative finite operands, by the case-split formula:
    (fg)(p,-) is top for p < 0 and sup_{s>0} f(s,-) /\\ g(p/s,-) otherwise.

    As in ``add``, the supremum is a join over the pieces of g, here those
    meeting (0, +inf), with f sampled once at the end of each piece, at
    p/b_j (the unbounded piece drops out, as g is finite).  The products
    are ints over D * D, and for an int a of f's grid a <= p/b_j iff
    a <= floor(p/b_j).  The grid starts at 0, so its first piece, the one
    negative piece, is top, and each other piece is sampled at its left
    end, a grid point."""
    check_same_carrier(f.carrier, g.carrier, _DIFFERENT_CARRIERS)
    if not (f.is_nonnegative() and g.is_nonnegative()):
        raise NegativeOperand("multiplication needs nonnegative operands")
    if not (f.is_finite() and g.is_finite()):
        raise NotFinite("multiplication is defined for finite functions only")
    if not f._grid or not g._grid:
        return f
    den, (fb, gb) = _int_grids((f, g))
    first = bisect_right(gb, 0)  # the piece of g reaching down to 0
    grid = sorted({0} | {x * y for x in fb if x > 0 for y in gb[first:]})
    upper = _convolve(f, fb, list(zip(gb[first:], g._up[first:])), grid, floordiv)
    return _from_grid(f.carrier, den * den, grid, [f.carrier._full, *upper])


# -- countable (here: finite) lattice operations ----------------------------------------


def seq_inf(fs: Sequence[CutFunction]) -> CutFunction:
    """Meet of a finite family: the upper cuts are the meets
    inf_n f_n(p,-), the complements of the joins sup_n f_n(-,q) of the
    lower cuts on the same intervals."""
    return _fold_upper(fs, "seq_inf", and_)


def seq_sup(fs: Sequence[CutFunction]) -> CutFunction:
    """Join of a finite family: the upper cuts are the joins sup_n f_n(p,-)."""
    return _fold_upper(fs, "seq_sup", or_)


def _fold_upper(fs: Sequence[CutFunction], name: str, op) -> CutFunction:
    """The family's upper cuts folded with op at each piece of the merged
    grid.  Ladder values are complemented and the complemented elements
    are a sublattice, so the folds are too."""
    fs = list(fs)
    if not fs:
        raise InvalidArgument(f"{name} needs at least one function")
    den, grid, pieces = _sample(fs)
    return _from_grid(fs[0].carrier, den, grid, [reduce(op, ups) for ups in pieces])


# -- sequences and limits -------------------------------------------------------------


class _FunctionSequenceFields(NamedTuple):
    prefix: Tuple[CutFunction, ...]
    tail: Union[CutFunction, Tuple[CutFunction, ...]]


class FunctionSequence(_FunctionSequenceFields):
    """An eventually periodic sequence: a finite prefix, then a cycle
    repeated forever.  The tail is one function (a cycle of one: the
    sequence is eventually constant) or a tuple of two or more, the cycle;
    the k-th member is prefix[k] for k below len(prefix) and
    cycle[(k - len(prefix)) % len(cycle)] from there on.

    A sequence is stored in one canonical form, so two sequences with
    equal members compare and hash equal: the cycle is cut to its shortest
    period, and trailing prefix members equal to the cycle's last member
    are rolled into the cycle."""

    __slots__ = ()

    def __new__(cls, prefix: Tuple[CutFunction, ...],
                tail: Union[CutFunction, Sequence[CutFunction]]):
        prefix = tuple(prefix)
        cycle = (tail,) if isinstance(tail, CutFunction) else tuple(tail)
        if not cycle:
            raise InvalidArgument("the tail cycle needs at least one function")
        for f in prefix + cycle:
            check_same_carrier(f.carrier, cycle[0].carrier, _DIFFERENT_CARRIERS)
        n = len(cycle)
        cycle = cycle[:next(p for p in range(1, n + 1) if n % p == 0 and cycle[p:] == cycle[:-p])]
        while prefix and prefix[-1] == cycle[-1]:
            prefix, cycle = prefix[:-1], prefix[-1:] + cycle[:-1]
        return super().__new__(cls, prefix, cycle[0] if len(cycle) == 1 else cycle)

    @classmethod
    def _make(cls, fields):  # so that _replace runs the checks as well
        return cls(*fields)

    @property
    def cycle(self) -> Tuple[CutFunction, ...]:
        """The tail as a tuple: (tail,) for an eventually constant sequence."""
        return (self.tail,) if isinstance(self.tail, CutFunction) else self.tail

    def at(self, k: int) -> CutFunction:
        n, cycle = len(self.prefix), self.cycle
        return self.prefix[k] if k < n else cycle[(k - n) % len(cycle)]


def limits(seq: FunctionSequence) -> Tuple[CutFunction, CutFunction, Optional[CutFunction]]:
    """(liminf, limsup, lim or None) by the defining formulas liminf =
    sup_n inf_{k>=n} and limsup = inf_n sup_{k>=n}.  The suffix from any n
    past the prefix holds exactly the cycle's members, and an earlier
    suffix holds more, so its meet is lower and its join higher: liminf is
    the meet of the cycle, limsup its join, and the limit exists iff the
    two are equal, i.e. iff the cycle is constant."""
    liminf, limsup = seq_inf(seq.cycle), seq_sup(seq.cycle)
    return liminf, limsup, liminf if liminf == limsup else None
