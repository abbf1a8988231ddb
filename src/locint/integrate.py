"""The pointfree integral against a measure on S(L): one signed sum over J(L).

By Birkhoff duality C(L) is the powerset of the join-irreducibles J(L), so
a function over C(L) is a value g(j) at each point j of J(L) (carrier bit
i stands for one j, ``CongruenceFrame.point_keeps``), and a measure is one
weight mu({j}) per point, the measure of the S(L) atom keeping j alone.
Every integral here is the one sum

    int_S g dmu = sum over the points j kept by S of g(j) * mu({j}),

with 0 * inf = 0, split into the positive and the negative part: g is
integrable over S when at least one part is finite, summable when both
are.  ``summability``/``integrate_simple`` read a simple function's value
vector, and ``integrate_general`` reads an extended function's value at
each point (+-inf where its upper ladder always or never holds the point),
which is the supremum of its simple minorants' integrals, attained on its
own level cells.  The indefinite integral of a nonnegative g is the
measure with g(j) * mu({j}) on the atom keeping j, and the nonnegativity
certificate asks that no point of S hold a negative value.  Only
``integral_of_representation`` reads names: it takes any disjoint named
representation sum_i r_i * chi(theta_i), with theta_i the complement of
the congruence of a sublocale S_i, and sums r_i * mu(S_i /\\ S) term by
term, an independent check of representation independence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Sequence, Tuple

from .congruence import Congruence, SublocaleView
from .errors import ConsistencyError, NotIntegrable, NotNonnegative
from .lattice import check_same_carrier
from .measure import Measure
from .rationals import (
    POS_INF,
    ZERO,
    ExtValue,
    Infinite,
    ext_add,
    ext_le,
    ext_scale,
    ext_sub,
    format_extended,
    is_finite,
    parse_rational,
)
from .simple import SimpleFunction, characteristic_simple, sf_mul

if TYPE_CHECKING:
    from .cutfunction import CutFunction

SUMMABLE = "summable"
INTEGRABLE_NOT_SUMMABLE = "integrable-not-summable"
NOT_INTEGRABLE = "not-integrable"

_SIMPLE_OFF_FRAME = "the simple function does not live on the measure's congruence frame"


class SummabilityReport(NamedTuple):
    """Integrals of the two parts and the resulting classification."""

    positive_part: ExtValue
    negative_part: ExtValue
    classification: str


class RestrictionWitness(NamedTuple):
    """Both sides of the restriction-versus-product identity."""

    restricted: ExtValue
    multiplied: ExtValue

    @property
    def equal(self) -> bool:
        return self.restricted == self.multiplied


def classify(pos: ExtValue, neg: ExtValue) -> SummabilityReport:
    if is_finite(pos) and is_finite(neg):
        return SummabilityReport(pos, neg, SUMMABLE)
    if is_finite(pos) or is_finite(neg):
        return SummabilityReport(pos, neg, INTEGRABLE_NOT_SUMMABLE)
    return SummabilityReport(pos, neg, NOT_INTEGRABLE)


def report_value(report: SummabilityReport) -> ExtValue:
    if report.classification == NOT_INTEGRABLE:
        raise NotIntegrable(
            "both parts have infinite integral; the value is undefined")
    return ext_sub(report.positive_part, report.negative_part)


def _keep_of(measure: Measure, over: Optional[Congruence]) -> int:
    """The keep-mask of the sublocale integrated over (L when None),
    checked to be a sublocale of the measure's lattice."""
    if over is None:
        return measure.view.top.keep
    measure.view.index_of(over)
    return over.keep


def _signed_sum(den: int, vals: Sequence, measure: Measure, over: int) -> SummabilityReport:
    """The one integral: with vals[i] / den the value at carrier bit i (an
    int, or +-inf) and w_i the measure of the S(L) atom keeping that point
    if S keeps it (else of the void sublocale, 0), the parts are the sums of
    v * w_i over v > 0 and of -v * w_i over v < 0, with 0 * inf = 0.  A
    weight is a Fraction >= 0 or +inf, so each finite part is kept as an
    int pair, its numerator over den and over the product of the weights'
    denominators; the pair (0, 0) stands for +inf, and absorbs.  A part
    with numerator 0 is ``ZERO``, with no ``Fraction`` built."""
    value = measure.value_by_keep
    pn, pd, nn, nd = 0, 1, 0, 1
    for v, keep in zip(vals, measure.view.frame.point_keeps()):
        w = value(keep & over)
        if type(v) is int and type(w) is Fraction:  # the finite case
            wn, wd = w.as_integer_ratio()
            if v > 0:
                pn, pd = pn * wd + v * wn * pd, pd * wd
            elif v < 0:
                nn, nd = nn * wd - v * wn * nd, nd * wd
        elif v and w:  # an infinite value or weight, neither 0
            if (v.sign if isinstance(v, Infinite) else v) > 0:
                pn = pd = 0
            else:
                nn = nd = 0
    return classify(*[POS_INF if not d else Fraction(n, d * den) if n else ZERO for n, d in ((pn, pd), (nn, nd))])


def summability(g: SimpleFunction, measure: Measure,
                over: Optional[Congruence] = None) -> SummabilityReport:
    """Part-wise integrals and classification; never raises for defined input."""
    check_same_carrier(g.carrier, measure.view.frame.as_lattice(), _SIMPLE_OFF_FRAME)
    return _signed_sum(*g._point_values(), measure, _keep_of(measure, over))


def integrate_simple(g: SimpleFunction, measure: Measure,
                     over: Optional[Congruence] = None) -> Tuple[ExtValue, SummabilityReport]:
    """The integral of g over a sublocale, via positive/negative parts."""
    report = summability(g, measure, over)
    return report_value(report), report


def _term_measure(measure: Measure, element: str, over: int) -> ExtValue:
    """mu(S_i /\\ S) for the term element theta_i = theta_{S_i}^c and the
    sublocale S with keep-mask `over`: S_i keeps the complement of theta_i's
    keep-mask q_i, and a meet of sublocales keeps the intersection, so the
    value sits at the keep-mask ~q_i & over."""
    frame = measure.view.frame
    return measure.value_by_keep(~frame.congruence_of_element(element).keep & over)


def integral_of_representation(view: SublocaleView,
                               terms: List[Tuple[Fraction, str]],
                               measure: Measure,
                               over: Optional[Congruence] = None) -> ExtValue:
    """Direct sum over any pairwise-disjoint representation, term by term
    on the extended line; must agree with the canonical value for
    integrable functions."""
    q = _keep_of(measure, over)
    lat = view.frame.as_lattice()
    for i, (_, a) in enumerate(terms):
        for _, b in terms[i + 1:]:
            if lat.meet(a, b) != lat.bottom:
                raise ConsistencyError(
                    f"representation terms {a!r}, {b!r} are not disjoint")
    parts = [ZERO, ZERO]  # r >= 0, r < 0
    for r, element in terms:
        r = parse_rational(r)
        parts[r < 0] = ext_add(parts[r < 0], ext_scale(abs(r), _term_measure(measure, element, q)))
    return report_value(classify(*parts))


def characteristic_of_sublocale(view: SublocaleView, s: Congruence) -> SimpleFunction:
    """chi_S = chi(theta_S^c) as a simple function over C(L)."""
    carrier = view.frame.as_lattice()
    return characteristic_simple(carrier.elements[view.index_of(view.complement(s))], carrier)


def restrict_vs_multiply(g: SimpleFunction, measure: Measure,
                         s: Congruence) -> RestrictionWitness:
    """Integral over a complemented S versus the integral of g * chi_S;
    the two sides are computed independently and must agree exactly."""
    chi_s = characteristic_of_sublocale(measure.view, s)
    left, _ = integrate_simple(g, measure, s)
    right, _ = integrate_simple(sf_mul(g, chi_s), measure, None)
    witness = RestrictionWitness(left, right)
    if not witness.equal:
        raise ConsistencyError(
            f"restriction {format_extended(left)} != product {format_extended(right)}")
    return witness


def indefinite_integral(g: SimpleFunction, measure: Measure) -> Measure:
    """S |-> integral of g over S; a measure on S(L) for nonnegative g, with
    the value g(j) * mu({j}) on the atom keeping the point j."""
    den, vals = g._point_values()
    if min(vals) < 0:
        raise NotNonnegative("the indefinite integral needs a nonnegative function")
    check_same_carrier(g.carrier, measure.view.frame.as_lattice(), _SIMPLE_OFF_FRAME)
    return Measure(measure.view, [ext_scale(Fraction(v, den), measure.value_by_keep(keep))
                                  for keep, v in sorted(zip(measure.view.frame.point_keeps(), vals))])


def nonnegativity_certificate(g: SimpleFunction, measure: Measure,
                              s: Congruence) -> bool:
    """Check that no point kept by S holds a negative value of g (that is,
    theta_S^c /\\ g(-,0) = 0); when it holds the integral over S is
    asserted to be nonnegative and True is returned."""
    check_same_carrier(g.carrier, measure.view.frame.as_lattice(), _SIMPLE_OFF_FRAME)
    q = _keep_of(measure, s)
    _, vals = g._point_values()
    if any(v < 0 and keep & q for v, keep in zip(vals, measure.view.frame.point_keeps())):
        return False
    value, _ = integrate_simple(g, measure, s)
    if not ext_le(ZERO, value):
        raise ConsistencyError(
            f"certificate held but the integral is {format_extended(value)}")
    return True


def integrate_general(f: CutFunction, measure: Measure,
                      over: Optional[Congruence] = None) -> ExtValue:
    """Integral of an arbitrary (possibly extended) function over C(L),
    through the parts f+ = f \\/ 0 and f- = (-f) \\/ 0: the same signed sum,
    where a point of value +-inf adds +inf to its part unless its atom has
    measure 0.  A rational step function attains the supremum over its
    simple minorants on its own level cells."""
    check_same_carrier(f.carrier, measure.view.frame.as_lattice(),
                       "the function does not live on the measure's congruence frame")
    return report_value(_signed_sum(*f._point_values(), measure, _keep_of(measure, over)))
