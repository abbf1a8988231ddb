"""Measures (sigma-continuous valuations) on the coframe of sublocales.

A measure assigns an extended nonnegative rational to every sublocale and
must satisfy strictness (M1), monotonicity (M2) and modularity (M3).  S(L)
is Boolean (C(L) is the powerset of J(L)), where M1-M3 together say exactly
that the measure is additive over the atoms; that O(|C|) check is the fast
path.  The exhaustive sweep over all pairs is the fallback: it runs only
when the additive check fails, and reports the first failing axiom.
Measures given by atom weights are built additively on the keep-masks
(``additive_measure``), so they are measures by construction.

Continuity on increasing sequences (M4) is discharged by finiteness of the
carrier: every increasing sequence stabilises, so its supremum is attained
and (M4) follows from (M2).  That discharge is a documented fact, not a
test.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence, Tuple

from .congruence import Congruence, SublocaleView
from .errors import AxiomViolation, ConsistencyError, MalformedDocument, NotBoolean
from .rationals import ZERO, ExtValue, ext_add, ext_le, format_extended


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
        check_measure_value(v)
        table[i] = v
    for i, v in enumerate(table):
        if v is None:
            raise MalformedDocument(
                f"no value for sublocale {view.ref_name(subs[i])}")
    if not is_additive(view, table):
        check_axioms(view, table)
        raise ConsistencyError("additive check and exhaustive sweep disagree")
    return Measure(view, tuple(table))


def check_measure_value(v: ExtValue) -> None:
    if not ext_le(ZERO, v):
        raise MalformedDocument(
            f"measure values must lie in [0, inf]; got {format_extended(v)}")


def subset_sums(weights: Sequence[ExtValue]) -> List[ExtValue]:
    """sums[m] = the sum of weights[k] over the bits k of m, for every
    m < 2**len(weights); one ext_add per entry, doubling the table bit by
    bit."""
    sums: List[ExtValue] = [ZERO]
    for w in weights:
        sums += [ext_add(s, w) for s in sums]
    return sums


def is_additive(view: SublocaleView, table: Sequence[ExtValue]) -> bool:
    """mu(S) equals the sum of mu over the atoms below S, for every S.

    On keep-masks the atoms below S are the bits of S's mask, so this
    compares the table with the subset sums of its atom values: O(|C|)."""
    pos = view.frame._pos
    sums = subset_sums([table[pos[1 << k]] for k in range(view.frame._full.bit_length())])
    return all(table[i] == sums[s.keep] for i, s in enumerate(view.sublocales))


def additive_measure(view: SublocaleView, bit_weights: Sequence[ExtValue]) -> Measure:
    """The measure mu(S) = sum of bit_weights[k] over the bits k of S's
    keep-mask, i.e. over the atoms of S(L) below S.

    S(L) is Boolean, so an additive table satisfies M1-M3 by construction
    and needs no sweep; only the weights themselves are range-checked,
    before anything is summed."""
    for w in bit_weights:
        check_measure_value(w)
    sums = subset_sums(bit_weights)
    return Measure(view, tuple(sums[s.keep] for s in view.sublocales))


def check_axioms(view: SublocaleView, table: Sequence[ExtValue]) -> None:
    """The exhaustive sweep over a total table in frame order: M1, then M2
    on all order pairs, then M3 on all pairs; raises on the first failure."""
    subs = view.sublocales
    if table[view.index_of(view.bottom)] != ZERO:
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

    The atoms of a Boolean L are its join-irreducibles, the bits of the
    keep-masks, and o(a) keeps exactly the atoms below a; so the measure
    of a sublocale is the weight sum over the atoms its congruence keeps."""
    lat = view.frame.lattice
    if not lat.is_boolean():
        raise NotBoolean("atom weights define a measure only over a Boolean lattice")
    atoms = lat.atoms()
    missing = [a for a in atoms if a not in weights]
    if missing:
        raise MalformedDocument(f"no weight for atom(s) {missing!r}")
    reject_non_atoms(weights, atoms)
    return additive_measure(view, [weights[lat.elements[j]] for j in lat._jirr])


def reject_non_atoms(weights: Iterable[str], atoms: Sequence[str]) -> None:
    """Every key of an atom-weight map (a measure's ``on_open_weights``, a
    space's ``lambda``) must name an atom."""
    extra = [a for a in weights if a not in atoms]
    if extra:
        raise MalformedDocument(f"weights given for non-atoms {extra!r}")
