"""Measures (sigma-continuous valuations) on the coframe of sublocales.

A measure assigns an extended nonnegative rational to every sublocale and
must satisfy strictness (M1), monotonicity (M2) and modularity (M3).  S(L)
is Boolean (C(L) is the powerset of J(L)), where M1-M3 together say exactly
that the measure is additive over the atoms; that O(|C|) check is the fast
path.  The exhaustive sweep over all pairs is the fallback: it runs only
when the additive check fails, and reports the first failing axiom.

Continuity on increasing sequences (M4) is discharged by finiteness of the
carrier: every increasing sequence stabilises, so its supremum is attained
and (M4) follows from (M2).  That discharge is a documented fact, not a
test.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from .congruence import Congruence, SublocaleView, nabla
from .errors import AxiomViolation, ConsistencyError, MalformedDocument, NotBoolean
from .rationals import ExtValue, ext_add, ext_le, format_extended, is_finite


class Measure:
    """A validated measure on S(L); values are indexed in frame order."""

    __slots__ = ("view", "_values")

    def __init__(self, view: SublocaleView, values: Tuple[ExtValue, ...]):
        self.view = view
        self._values = values

    def value(self, sublocale: Congruence) -> ExtValue:
        return self._values[self.view.index_of(sublocale)]

    def value_by_index(self, i: int) -> ExtValue:
        return self._values[i]

    def items(self):
        return zip(self.view.sublocales, self._values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{self.view.ref_name(s)}={format_extended(v)}"
                          for s, v in self.items())
        return f"Measure({inner})"


def validate_measure(view: SublocaleView, values: Mapping[Congruence, ExtValue]) -> Measure:
    """Check totality and the axioms M1-M3; M4 holds by finiteness.

    Fast path: S(L) is Boolean, so M1-M3 hold iff the measure is additive
    over the atoms (``is_additive``).  Only a table that fails it goes
    through the exhaustive sweep, which names the first failing axiom."""
    subs = view.sublocales
    table: list = [None] * len(subs)
    for sub, v in values.items():
        i = view.index_of(sub)
        if table[i] is not None:
            raise MalformedDocument(
                f"two values given for sublocale {view.ref_name(sub)}")
        if not (is_finite(v) and v >= 0) and not (not is_finite(v) and v.sign > 0):
            raise MalformedDocument(
                f"measure values must lie in [0, inf]; got {format_extended(v)}")
        table[i] = v
    for i, v in enumerate(table):
        if v is None:
            raise MalformedDocument(
                f"no value for sublocale {view.ref_name(subs[i])}")
    if not is_additive(view, table):
        check_axioms(view, table)
        raise ConsistencyError("additive check and exhaustive sweep disagree")
    return Measure(view, tuple(table))


def is_additive(view: SublocaleView, table: Sequence[ExtValue]) -> bool:
    """mu(S) equals the sum of mu over the atoms below S, for every S.

    On keep-masks the atoms below S are the bits of S's mask, so the sums
    are built up mask by mask, one ext_add each: O(|C|)."""
    masks = view.frame.masks
    pos = view.frame._pos
    sums: List[ExtValue] = [Fraction(0)] * len(masks)
    for q in range(1, len(masks)):
        low = q & -q
        sums[q] = ext_add(sums[q ^ low], table[pos[low]])
    return all(table[i] == sums[q] for i, q in enumerate(masks))


def check_axioms(view: SublocaleView, table: Sequence[ExtValue]) -> None:
    """The exhaustive sweep over a total table in frame order: M1, then M2
    on all order pairs, then M3 on all pairs; raises on the first failure."""
    subs = view.sublocales
    if table[view.index_of(view.bottom)] != Fraction(0):
        raise AxiomViolation("(M1) fails: the void sublocale must have measure 0")
    for i, j in view.order_pairs():
        if not ext_le(table[i], table[j]):
            raise AxiomViolation(
                f"(M2) fails on ({view.ref_name(subs[i])}, {view.ref_name(subs[j])}): "
                f"{format_extended(table[i])} > {format_extended(table[j])}")
    for i, j, m, jn in view.modularity_pairs():
        left = ext_add(table[i], table[j])
        right = ext_add(table[jn], table[m])
        if left != right:
            raise AxiomViolation(
                f"(M3) fails on ({view.ref_name(subs[i])}, {view.ref_name(subs[j])}): "
                f"{format_extended(table[i])} + {format_extended(table[j])} != "
                f"{format_extended(table[jn])} + {format_extended(table[m])}")


def measure_from_weights(view: SublocaleView, weights: Mapping[str, ExtValue]) -> Measure:
    """Additive measure on a Boolean carrier from atom weights.

    Every congruence of a finite Boolean algebra is nabla(b) for a unique
    b; the corresponding sublocale is the open one o(b^c), so its measure
    is the weight sum over the atoms below b^c."""
    lat = view.frame.lattice
    if not lat.is_boolean():
        raise NotBoolean("atom weights define a measure only over a Boolean lattice")
    atoms = lat.atoms()
    missing = [a for a in atoms if a not in weights]
    if missing:
        raise MalformedDocument(f"no weight for atom(s) {missing!r}")
    extra = [a for a in weights if a not in atoms]
    if extra:
        raise MalformedDocument(f"weights given for non-atoms {extra!r}")
    values: Dict[Congruence, ExtValue] = {}
    for theta in view.sublocales:
        b = lat.join_all(theta.block_containing(lat.bottom))
        if theta != nabla(lat, b):
            raise NotBoolean(
                f"congruence {theta.partition_name()} is not closed; "
                "the carrier is not Boolean")
        bc = lat.complement(b)
        total: ExtValue = Fraction(0)
        for a in atoms:
            if lat.leq(a, bc):
                total = ext_add(total, weights[a])
        values[theta] = total
    return validate_measure(view, values)
