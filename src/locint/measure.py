"""Measures (sigma-continuous valuations) on the coframe of sublocales.

A measure assigns an extended nonnegative rational to every sublocale and
must satisfy strictness (M1), monotonicity (M2) and modularity (M3).  S(L)
is Boolean (C(L) is the powerset of J(L)), where M1-M3 together say exactly
that the measure is the sum of its values on the atoms of S(L), the
single-bit keep-masks.  So a ``Measure`` is built from those |J| atom
values alone, each in [0, inf], and is a measure by construction, in
O(|J|): it holds them as ints over one denominator with a mask of the
+inf atoms, and keeps nothing else.  As S(L) is 2^J(L), the measure of a
sublocale is the sum over the bits of its keep-mask, read in O(|J|); a
listing of every sublocale makes one pass of ``subset_sums``.  A table
given sublocale by sublocale (``validate_measure``) is checked against the
measure built from its atom entries; only a table that differs goes
through the sweep over all pairs (``check_axioms``), which names the
first failing axiom.

Continuity on increasing sequences (M4) is discharged by finiteness of the
carrier: every increasing sequence stabilises, so its supremum is attained
and (M4) follows from (M2).  That discharge is a documented fact, not a
test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Mapping, Sequence

from .congruence import Congruence, CongruenceFrame
from .errors import AxiomViolation, ConsistencyError, MalformedDocument, NotBoolean
from .rationals import (
    POS_INF,
    ZERO,
    ExtValue,
    Infinite,
    ext_add,
    ext_le,
    format_extended,
    over_common_denominator,
    parse_rational,
)


class Measure:
    """The measure on S(L) with the given value on each atom of S(L).

    ``atom_values[k]`` is the measure of the atom whose keep-mask is bit k,
    i.e. of the k-th join-irreducible.  The measure holds those |J| values
    as ints over one denominator: ``_weights[k]`` is the k-th value times
    ``_denom`` (0 where it is +inf), and ``_inf`` is the mask of the bits
    whose value is +inf.  The measure of a sublocale is the sum over the
    bits of its keep-mask, O(|J|); only a listing of every sublocale
    builds all 2^|J| sums."""

    __slots__ = ("frame", "_denom", "_weights", "_inf")

    def __init__(self, frame: CongruenceFrame, atom_values: Sequence[ExtValue]):
        n_atoms = len(frame.lattice._jirr)
        if len(atom_values) != n_atoms:
            raise MalformedDocument(
                f"a measure takes one value per atom of S(L), {n_atoms}; "
                f"got {len(atom_values)}")
        values = [check_measure_value(v) for v in atom_values]
        inf = sum(1 << k for k, v in enumerate(values) if isinstance(v, Infinite))
        finite = [ZERO if isinstance(v, Infinite) else v for v in values]
        self._set(frame, *over_common_denominator(finite), inf)

    def _set(self, frame: CongruenceFrame, den: int, weights: Sequence[int], inf: int) -> None:
        self.frame, self._denom, self._weights, self._inf = frame, den, tuple(weights), inf

    def value(self, sublocale: Congruence) -> ExtValue:
        return self.value_by_keep(self.frame.keep_of(sublocale))

    def value_by_keep(self, keep: int) -> ExtValue:
        """The measure of the sublocale whose keep-mask is `keep`."""
        if keep & self._inf:
            return POS_INF
        return Fraction(sum([w for k, w in enumerate(self._weights) if keep >> k & 1]),
                        self._denom)

    def items(self):
        """(sublocale, value) pairs in frame order, from one table of
        int sums by keep-mask."""
        den, inf = self._denom, self._inf
        sums = subset_sums(self._weights, 0)
        return ((s, POS_INF if s.keep & inf else Fraction(sums[s.keep], den))
                for s in self.frame.congruences)

    def __repr__(self) -> str:
        inner = ", ".join(f"{self.frame.ref_name(s)}={format_extended(v)}"
                          for s, v in self.items())
        return f"Measure({inner})"


def _from_ints(frame: CongruenceFrame, den: int, weights: Sequence[int], inf: int) -> Measure:
    """The measure with atom values weights[k] / den, and +inf on the bits
    of `inf` (where weights[k] is 0); unchecked, for callers whose values
    lie in [0, inf] by construction (``integrate.indefinite_integral``)."""
    mu = Measure.__new__(Measure)
    mu._set(frame, den, weights, inf)
    return mu


def validate_measure(frame: CongruenceFrame, values: Mapping[Congruence, ExtValue]) -> Measure:
    """Check totality and the axioms M1-M3; M4 holds by finiteness.

    S(L) is Boolean, so M1-M3 hold iff the table is the measure built from
    its own atom entries.  Only a table that differs goes through the
    exhaustive sweep, which names the first failing axiom."""
    subs = frame.congruences
    table: list = [None] * len(subs)  # by keep-mask
    for sub, v in values.items():
        keep = frame.keep_of(sub)  # the sublocale is checked before its value
        table[keep] = check_measure_value(v)
    for s in subs:
        if table[s.keep] is None:
            raise MalformedDocument(f"no value for sublocale {frame.ref_name(s)}")
    mu = Measure(frame, [table[1 << k] for k in range(len(frame.lattice._jirr))])
    if any(v != table[s.keep] for s, v in mu.items()):
        check_axioms(frame, [table[s.keep] for s in subs])
        raise ConsistencyError("additive check and exhaustive sweep disagree")
    return mu


def check_measure_value(v) -> ExtValue:
    """The one coercion of measure values: an ``Infinite`` as is, anything
    else through ``parse_rational`` (floats, bools and Decimals raise
    InvalidArgument); the value must then lie in [0, inf]."""
    if isinstance(v, Infinite):
        if v.sign > 0:
            return v
    else:
        v = parse_rational(v)
        if v.numerator >= 0:
            return v
    raise MalformedDocument(
        f"measure values must lie in [0, inf]; got {format_extended(v)}")


def subset_sums(weights: Sequence[ExtValue], zero: ExtValue = ZERO) -> List[ExtValue]:
    """sums[m] = `zero` plus the sum of weights[k] over the bits k of m,
    for every m < 2**len(weights); one ext_add per entry, doubling the
    table bit by bit.  Int weights from an int zero give int sums."""
    sums: List[ExtValue] = [zero]
    for w in weights:
        sums += [ext_add(s, w) for s in sums]
    return sums


def check_axioms(frame: CongruenceFrame, table: Sequence[ExtValue]) -> None:
    """The exhaustive sweep over a total table in frame order: M1, then M2
    on every (i, j) with S_i <= S_j, i != j, then M3 on every i < j, each
    walking the keep-masks in place; raises on the first failure."""
    subs = frame.congruences
    masks = [s.keep for s in subs]
    by_keep = dict(zip(masks, table))
    if by_keep[0] != ZERO:
        raise AxiomViolation("(M1) fails: the void sublocale must have measure 0")
    for i, qi in enumerate(masks):
        for j, qj in enumerate(masks):
            if i != j and qi & qj == qi and not ext_le(table[i], table[j]):
                raise AxiomViolation(
                    f"(M2) fails on ({frame.ref_name(subs[i])}, {frame.ref_name(subs[j])}): "
                    f"{format_extended(table[i])} > {format_extended(table[j])}")
    for i, qi in enumerate(masks):
        for j in range(i + 1, len(masks)):
            m, jn = by_keep[qi & masks[j]], by_keep[qi | masks[j]]
            if ext_add(table[i], table[j]) != ext_add(jn, m):
                raise AxiomViolation(
                    f"(M3) fails on ({frame.ref_name(subs[i])}, {frame.ref_name(subs[j])}): "
                    f"{format_extended(table[i])} + {format_extended(table[j])} != "
                    f"{format_extended(jn)} + {format_extended(m)}")


def measure_from_weights(frame: CongruenceFrame, weights: Mapping[str, ExtValue]) -> Measure:
    """Additive measure on a Boolean carrier from atom weights.

    The atoms of a Boolean L are its join-irreducibles, the bits of the
    keep-masks, and o(a) keeps exactly the atoms below a; so the measure
    of a sublocale is the weight sum over the atoms its congruence keeps."""
    lat = frame.lattice
    if not lat.is_boolean():
        raise NotBoolean("atom weights define a measure only over a Boolean lattice")
    atoms = lat.atoms()
    missing = [a for a in atoms if a not in weights]
    if missing:
        raise MalformedDocument(f"no weight for atom(s) {missing!r}")
    reject_non_atoms(weights, atoms)
    return Measure(frame, [weights[lat.elements[j]] for j in lat._jirr])


def reject_non_atoms(weights: Iterable[str], atoms: Sequence[str]) -> None:
    """Every key of an atom-weight map (a measure's ``on_open_weights``, a
    space's ``lambda``) must name an atom."""
    extra = [a for a in weights if a not in atoms]
    if extra:
        raise MalformedDocument(f"weights given for non-atoms {extra!r}")
