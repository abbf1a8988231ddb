"""Measurable real and extended-real functions as exact rational step ladders.

A function on a finite carrier is stored by its breakpoint grid
t_0 < ... < t_{m-1} together with

* the upper ladder: the cut p -> f(p,-), constant on each [t_i, t_{i+1})
  and on the two unbounded ends (m+1 values, antitone), and
* the lower ladder: q -> f(-,q), constant on each (t_i, t_{i+1}]
  (m+1 values, isotone).

The defining relations of the frame of (extended) reals  --  the cuts meet
to 0 when p >= q and join to 1 when p < q  --  reduce, for step ladders, to
the two interval values being complements of each other; the constructor
checks exactly that together with monotonicity, and then normalises away
breakpoints where nothing changes.  Right-/left-constancy of the interval
convention discharges the regularity relations.

Suprema over all rationals (in the addition and multiplication formulas)
are evaluated exactly as finite joins: one operand's cut is constant on
each piece of the other's grid, and the other operand's monotone cut
reaches its supremum over that piece at the piece's end.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from .errors import (
    CarrierMismatch,
    ComplementationFailure,
    ConsistencyError,
    InvalidScale,
    NegativeOperand,
    NotFinite,
)
from .lattice import FiniteLattice
from .rationals import NEG_INF, POS_INF, ExtValue, Infinite


class CutFunction:
    """An exact step function given by its two cut ladders."""

    __slots__ = ("carrier", "breakpoints", "upper", "lower", "_hash")

    def __init__(self, carrier: FiniteLattice,
                 breakpoints: Sequence[Fraction],
                 upper: Sequence[str],
                 lower: Sequence[str]):
        bp = tuple(Fraction(b) for b in breakpoints)
        up = tuple(upper)
        lo = tuple(lower)
        if len(up) != len(bp) + 1 or len(lo) != len(bp) + 1:
            raise InvalidScale("each ladder needs exactly one value per interval")
        for i in range(len(bp) - 1):
            if not bp[i] < bp[i + 1]:
                raise InvalidScale(f"breakpoints not strictly increasing at {bp[i]}")
        for v in up + lo:
            carrier.index(v)
        for i in range(len(bp)):
            if not carrier.leq(up[i + 1], up[i]):
                raise InvalidScale(f"upper ladder is not antitone across {bp[i]}")
            if not carrier.leq(lo[i], lo[i + 1]):
                raise InvalidScale(f"lower ladder is not isotone across {bp[i]}")
        for i in range(len(bp) + 1):
            if carrier.meet(up[i], lo[i]) != carrier.bottom:
                raise InvalidScale(
                    f"cut relation (p,-) /\\ (-,q) = 0 fails on interval {i}: "
                    f"{up[i]!r} /\\ {lo[i]!r} != bottom")
            if carrier.join(up[i], lo[i]) != carrier.top:
                raise InvalidScale(
                    f"cut relation (p,-) \\/ (-,q) = 1 fails on interval {i}: "
                    f"{up[i]!r} \\/ {lo[i]!r} != top")
        # normalise: drop breakpoints across which nothing changes
        nbp: List[Fraction] = []
        nup: List[str] = [up[0]]
        nlo: List[str] = [lo[0]]
        for i in range(len(bp)):
            if up[i + 1] != nup[-1]:
                nbp.append(bp[i])
                nup.append(up[i + 1])
                nlo.append(lo[i + 1])
        self.carrier = carrier
        self.breakpoints = tuple(nbp)
        self.upper = tuple(nup)
        self.lower = tuple(nlo)
        self._hash = hash((self.breakpoints, self.upper))

    # -- evaluation -------------------------------------------------------------

    def upper_at(self, p: Fraction) -> str:
        """f(p,-); right-constant in p."""
        return self.upper[bisect_right(self.breakpoints, p)]

    def lower_at(self, q: Fraction) -> str:
        """f(-,q); left-constant in q."""
        return self.lower[bisect_left(self.breakpoints, q)]

    def is_finite(self) -> bool:
        return self.upper[0] == self.carrier.top and self.lower[-1] == self.carrier.top

    def is_nonnegative(self) -> bool:
        """f >= 0, i.e. f(p,-) = 1 for every p < 0."""
        return self.upper[bisect_left(self.breakpoints, Fraction(0))] == self.carrier.top

    def constant_value(self) -> Optional[ExtValue]:
        """The value if this is a constant function, else None."""
        lat = self.carrier
        if not self.breakpoints:
            if lat.top == lat.bottom:
                return Fraction(0)
            return POS_INF if self.upper[0] == lat.top else NEG_INF
        if len(self.breakpoints) == 1 and self.upper == (lat.top, lat.bottom):
            return self.breakpoints[0]
        return None

    def to_scale(self) -> "SigmaScale":
        """r |-> f(-,r) as a scale, with the upper cuts as witnesses."""
        return SigmaScale(self.carrier, self.breakpoints, self.lower, self.upper)

    def __eq__(self, other) -> bool:
        return (isinstance(other, CutFunction)
                and self.breakpoints == other.breakpoints
                and self.upper == other.upper
                and (self.carrier is other.carrier or self.carrier == other.carrier))

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        pieces = ", ".join(f"{b}:{u}" for b, u in zip(self.breakpoints, self.upper[1:]))
        return f"CutFunction(upper={self.upper[0]}|{pieces})"


# -- grid helpers ---------------------------------------------------------------


def _lower_reps(bp: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    if not bp:
        return (Fraction(0),)
    return tuple(bp) + (bp[-1] + 1,)


def _upper_reps(bp: Sequence[Fraction]) -> Tuple[Fraction, ...]:
    if not bp:
        return (Fraction(0),)
    return (bp[0] - 1,) + tuple(bp)


def _same_carrier(f: CutFunction, g: CutFunction) -> None:
    if f.carrier is not g.carrier and f.carrier != g.carrier:
        raise CarrierMismatch("the two functions live on different carriers")


# -- generators -------------------------------------------------------------------


def constant(value: ExtValue, carrier: FiniteLattice) -> CutFunction:
    """The (extended) constant function: (p,-) is top iff p < value."""
    top, bot = carrier.top, carrier.bottom
    if isinstance(value, Infinite):
        if value.sign > 0:
            return CutFunction(carrier, (), (top,), (bot,))
        return CutFunction(carrier, (), (bot,), (top,))
    return CutFunction(carrier, (value,), (top, bot), (bot, top))


def characteristic(a: str, carrier: FiniteLattice) -> CutFunction:
    """chi_a for complemented a: 1 on p < 0, a on [0,1), 0 from 1 on."""
    ac = carrier.complement(a)
    top, bot = carrier.top, carrier.bottom
    return CutFunction(carrier, (Fraction(0), Fraction(1)),
                       (top, a, bot), (bot, ac, top))


# -- order ------------------------------------------------------------------------


def leq(f: CutFunction, g: CutFunction) -> bool:
    """f <= g iff f(p,-) <= g(p,-) everywhere; the dual lower-ladder
    comparison is computed as well and cross-checked."""
    _same_carrier(f, g)
    lat = f.carrier
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    by_upper = all(lat.leq(f.upper_at(p), g.upper_at(p)) for p in _upper_reps(grid))
    by_lower = all(lat.leq(g.lower_at(q), f.lower_at(q)) for q in _lower_reps(grid))
    if by_upper != by_lower:
        raise ConsistencyError("upper and lower order tests disagree")
    return by_upper


# -- lattice operations -------------------------------------------------------------


def join_meet(f: CutFunction, g: CutFunction) -> Tuple[CutFunction, CutFunction]:
    """(f \\/ g, f /\\ g) computed pointwise on the merged grid."""
    _same_carrier(f, g)
    lat = f.carrier
    grid = sorted(set(f.breakpoints) | set(g.breakpoints))
    ur = _upper_reps(grid)
    lr = _lower_reps(grid)
    fj = CutFunction(lat, grid,
                     [lat.join(f.upper_at(p), g.upper_at(p)) for p in ur],
                     [lat.meet(f.lower_at(q), g.lower_at(q)) for q in lr])
    fm = CutFunction(lat, grid,
                     [lat.meet(f.upper_at(p), g.upper_at(p)) for p in ur],
                     [lat.join(f.lower_at(q), g.lower_at(q)) for q in lr])
    return fj, fm


# -- ring operations ------------------------------------------------------------------


def negate(f: CutFunction) -> CutFunction:
    """(-f)(p,-) = f(-,-p): mirror the grid and swap the ladders."""
    bp = tuple(-b for b in reversed(f.breakpoints))
    return CutFunction(f.carrier, bp, tuple(reversed(f.lower)), tuple(reversed(f.upper)))


def scale(lam: Fraction, f: CutFunction) -> CutFunction:
    """lam * f via (lam f)(p,-) = f(p/lam,-) for lam > 0; negation composed
    in for lam < 0; the zero scalar collapses to the constant 0."""
    lam = Fraction(lam)
    if lam == 0:
        return constant(Fraction(0), f.carrier)
    if lam < 0:
        return negate(scale(-lam, f))
    return CutFunction(f.carrier, tuple(lam * b for b in f.breakpoints), f.upper, f.lower)


def add(f: CutFunction, g: CutFunction) -> CutFunction:
    """f + g by the convolution formulas
    (f+g)(-,q) = sup_t f(-,t) /\\ g(-,q-t)  and dually for the upper cuts.

    Each supremum is a join over the pieces of g, on which g's cut is
    constant; f's monotone cut reaches its supremum over a piece at the
    piece's end, so f is sampled there once.  With b the breakpoints of g:
    (f+g)(-,q) = \\/_j f(-, q - b_{j-1}) /\\ g.lower[j] and
    (f+g)(p,-) = \\/_j f(p - b_j, -) /\\ g.upper[j].  The unbounded end
    pieces drop out, because g is finite: g.lower[0] = g.upper[-1] = 0."""
    _same_carrier(f, g)
    if not (f.is_finite() and g.is_finite()):
        raise NotFinite("addition is defined for finite functions only")
    lat = f.carrier
    if not f.breakpoints or not g.breakpoints:
        return f  # only over the one-element carrier
    meet, join, idx, bot = lat._meet, lat._join, lat._idx, lat._bottom
    b = g.breakpoints
    bp = sorted({x + y for x in f.breakpoints for y in b})
    g_lower = [idx[v] for v in g.lower[1:]]
    g_upper = [idx[v] for v in g.upper[:-1]]
    lower = []
    for q in _lower_reps(bp):
        acc = bot
        for bj, gl in zip(b, g_lower):
            acc = join[acc][meet[idx[f.lower_at(q - bj)]][gl]]
        lower.append(lat.elements[acc])
    upper = []
    for p in _upper_reps(bp):
        acc = bot
        for bj, gu in zip(b, g_upper):
            acc = join[acc][meet[idx[f.upper_at(p - bj)]][gu]]
        upper.append(lat.elements[acc])
    return CutFunction(lat, bp, upper, lower)


def sub(f: CutFunction, g: CutFunction) -> CutFunction:
    return add(f, negate(g))


def mul_nonneg(f: CutFunction, g: CutFunction) -> CutFunction:
    """f * g for nonnegative finite operands, by the case-split formulas:
    (fg)(p,-) is top for p < 0 and sup_{s>0} f(s,-) /\\ g(p/s,-) otherwise;
    (fg)(-,q) is bottom for q <= 0 and sup_{s>0} f(-,s) /\\ g(-,q/s) otherwise.

    As in ``add``, each supremum is a join over the pieces of g, here those
    meeting (0, +inf), with f sampled once at the end of each piece: at
    q/b_{j-1} for the lower cuts (+inf on the piece reaching down to 0) and
    at p/b_j for the upper cuts (the unbounded piece drops out, as g is
    finite)."""
    _same_carrier(f, g)
    if not (f.is_nonnegative() and g.is_nonnegative()):
        raise NegativeOperand("multiplication needs nonnegative operands")
    if not (f.is_finite() and g.is_finite()):
        raise NotFinite("multiplication is defined for finite functions only")
    lat = f.carrier
    if not f.breakpoints or not g.breakpoints:
        return f
    meet, join, idx, bot = lat._meet, lat._join, lat._idx, lat._bottom
    b = g.breakpoints
    first = bisect_right(b, Fraction(0))  # the piece of g reaching down to 0
    pos = b[first:]
    bp = sorted({Fraction(0)} | {x * y for x in f.breakpoints for y in pos if x > 0})
    g_lower = [idx[v] for v in g.lower[first:]]
    g_upper = [idx[v] for v in g.upper[first:-1]]
    f_at_inf = idx[f.lower[-1]]
    lower = []
    for q in _lower_reps(bp):
        if q <= 0:
            lower.append(lat.bottom)
            continue
        acc = meet[f_at_inf][g_lower[0]]
        for bj, gl in zip(pos, g_lower[1:]):
            acc = join[acc][meet[idx[f.lower_at(q / bj)]][gl]]
        lower.append(lat.elements[acc])
    upper = []
    for p in _upper_reps(bp):
        if p < 0:
            upper.append(lat.top)
            continue
        acc = bot
        for bj, gu in zip(pos, g_upper):
            acc = join[acc][meet[idx[f.upper_at(p / bj)]][gu]]
        upper.append(lat.elements[acc])
    return CutFunction(lat, bp, upper, lower)


def pos_neg_abs(f: CutFunction) -> Tuple[CutFunction, CutFunction, CutFunction]:
    """(f+, f-, |f|) with f+ = f \\/ 0, f- = (-f) \\/ 0, |f| = f+ + f-;
    the decomposition f = f+ - f- is verified before returning."""
    if not f.is_finite():
        raise NotFinite("positive/negative parts need a finite function")
    zero = constant(Fraction(0), f.carrier)
    fp = join_meet(f, zero)[0]
    fn = join_meet(negate(f), zero)[0]
    fa = add(fp, fn)
    if add(fp, negate(fn)) != f:
        raise ConsistencyError("f+ - f- failed to reproduce f")
    return fp, fn, fa


# -- countable (here: finite) lattice operations ----------------------------------------


def seq_inf(fs: Sequence[CutFunction]) -> CutFunction:
    """Meet of a finite family: the lower cuts are the joins
    sup_n f_n(-,q), which must be complemented; the upper cuts are their
    complements (the value of sup_{r>p} (sup_n f_n(-,r))^c on each interval)."""
    fs = list(fs)
    if not fs:
        raise ValueError("seq_inf needs at least one function")
    for g in fs[1:]:
        _same_carrier(fs[0], g)
    lat = fs[0].carrier
    grid = sorted(set().union(*(set(f.breakpoints) for f in fs)))
    lower = []
    upper = []
    for q in _lower_reps(grid):
        v = lat.join_all(f.lower_at(q) for f in fs)
        c = lat.complement_or_none(v)
        if c is None:
            raise ComplementationFailure(
                f"sup of lower cuts at q={q} is not complemented (element {v!r})")
        lower.append(v)
        upper.append(c)
    return CutFunction(lat, grid, upper, lower)


def seq_sup(fs: Sequence[CutFunction]) -> CutFunction:
    """Join of a finite family; dual to seq_inf on the upper ladders."""
    fs = list(fs)
    if not fs:
        raise ValueError("seq_sup needs at least one function")
    for g in fs[1:]:
        _same_carrier(fs[0], g)
    lat = fs[0].carrier
    grid = sorted(set().union(*(set(f.breakpoints) for f in fs)))
    lower = []
    upper = []
    for p in _upper_reps(grid):
        v = lat.join_all(f.upper_at(p) for f in fs)
        c = lat.complement_or_none(v)
        if c is None:
            raise ComplementationFailure(
                f"sup of upper cuts at p={p} is not complemented (element {v!r})")
        upper.append(v)
        lower.append(c)
    return CutFunction(lat, grid, upper, lower)


# -- sequences and limits -------------------------------------------------------------


@dataclass(frozen=True)
class FunctionSequence:
    """A sequence given by a finite prefix and a declared constant tail;
    the k-th member is prefix[k] for k below the stabilization index and
    the tail from there on."""

    prefix: Tuple[CutFunction, ...]
    tail: CutFunction

    def __post_init__(self):
        for f in self.prefix:
            _same_carrier(f, self.tail)

    @property
    def stabilization_index(self) -> int:
        return len(self.prefix)

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


# -- scales ------------------------------------------------------------------------------


@dataclass(frozen=True)
class SigmaScale:
    """A finite-scale map r |-> phi(r) with witnesses c_r, both stored as
    left-constant step functions over a shared threshold grid: value i
    applies on the piece (t_{i-1}, t_i]."""

    carrier: FiniteLattice
    thresholds: Tuple[Fraction, ...]
    phi: Tuple[str, ...]
    witness: Tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "thresholds", tuple(Fraction(t) for t in self.thresholds))
        object.__setattr__(self, "phi", tuple(self.phi))
        object.__setattr__(self, "witness", tuple(self.witness))
        if len(self.phi) != len(self.thresholds) + 1 or len(self.witness) != len(self.phi):
            raise InvalidScale("a scale needs one phi and one witness value per piece")

    def _piece_sample(self, i: int) -> Fraction:
        t = self.thresholds
        if not t:
            return Fraction(0)
        return t[i] if i < len(t) else t[-1] + 1

    def validate(self) -> None:
        """Check the two scale laws on the piece grid:
        phi(s) /\\ c_r = 0 for s <= r  and  c_r \\/ phi(s) = 1 for r < s."""
        lat = self.carrier
        n = len(self.phi)
        for i in range(n):
            for j in range(i, n):
                s, r = self._piece_sample(i), self._piece_sample(j)
                if i == j:
                    s = r
                if lat.meet(self.phi[i], self.witness[j]) != lat.bottom:
                    raise InvalidScale(
                        f"phi({s}) /\\ c({r}) != 0 "
                        f"({self.phi[i]!r} /\\ {self.witness[j]!r})")
        for j in range(n):
            for i in range(j, n):
                r, s = self._piece_sample(j), self._piece_sample(i)
                if i == j:
                    r = s - Fraction(1, 2)
                if lat.join(self.witness[j], self.phi[i]) != lat.top:
                    raise InvalidScale(
                        f"c({r}) \\/ phi({s}) != 1 "
                        f"({self.witness[j]!r} \\/ {self.phi[i]!r})")

    def is_finite(self) -> bool:
        lat = self.carrier
        return (lat.join_all(self.phi) == lat.top
                and lat.join_all(self.witness) == lat.top)


def from_sigma_scale(scale: SigmaScale) -> CutFunction:
    """The function generated by a scale:
    f(p,-) = sup_{r>p} c_r (suffix joins of the witnesses) and
    f(-,q) = sup_{r<q} phi(r) (prefix joins of phi)."""
    scale.validate()
    lat = scale.carrier
    n = len(scale.phi)
    lower = []
    acc = lat.bottom
    for i in range(n):
        acc = lat.join(acc, scale.phi[i])
        lower.append(acc)
    upper = [None] * n
    acc = lat.bottom
    for i in range(n - 1, -1, -1):
        acc = lat.join(acc, scale.witness[i])
        upper[i] = acc
    return CutFunction(lat, scale.thresholds, upper, lower)
