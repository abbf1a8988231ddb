"""The pointfree integral against a measure on S(L): one signed sum over J(L).

By Birkhoff duality C(L) is the powerset of the join-irreducibles J(L), so
a function over C(L) is a value g(j) at each point j of J(L) (carrier bit
i stands for one j, ``CongruenceFrame.point_bits``), and a measure is one
weight mu({j}) per point, the measure of the S(L) atom keeping j alone.
Every integral here is the one sum

    int_S g dmu = sum over the points j kept by S of g(j) * mu({j}),

with 0 * inf = 0, split into the positive and the negative part: g is
integrable over S when at least one part is finite, summable when both
are.  Each part is summed on ints, the values over their denominator
times the measure's int weights over theirs, and made a ``Fraction``
once.  ``summability``/``integrate_simple`` read a simple function's value
vector, and ``integrate_general`` reads an extended function's value at
each point (+-inf where its upper ladder always or never holds the point),
which is the supremum of its simple minorants' integrals, attained on its
own level cells.  The indefinite integral of a nonnegative g is the
measure with g(j) * mu({j}) on the atom keeping j, built from the int
products, and the nonnegativity certificate asks that no point of S hold
a negative value.  Only ``integral_of_representation`` reads names and
the measure's value on a sublocale (``Measure.value_by_keep``): it takes
any disjoint named representation sum_i r_i * chi(theta_i), with theta_i
the complement of the congruence of a sublocale S_i, and sums
r_i * mu(S_i /\\ S) term by term, an independent check of representation
independence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, List, NamedTuple, Optional, Tuple, Union

from .congruence import Congruence, CongruenceFrame
from .errors import ConsistencyError, NotIntegrable, NotNonnegative
from .lattice import check_same_carrier
from .measure import Measure, _from_ints
from .rationals import (
    POS_INF,
    ZERO,
    ExtValue,
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
        return measure.frame.lattice._full
    return measure.frame.keep_of(over)


def _by_point(f: Union[SimpleFunction, CutFunction], measure: Measure,
              message: str = _SIMPLE_OFF_FRAME) -> Tuple[int, Iterable]:
    """(den, the pairs (v, k)) for a function on the measure's frame, with
    v / den its value at the point of bit k in J(L) (an int, or +-inf),
    carrier bit by carrier bit; a function on another carrier raises
    ``message``."""
    check_same_carrier(f.carrier, measure.frame.as_lattice(), message)
    den, vals = f._point_values()
    return den, zip(vals, measure.frame.point_bits())


def _signed_sum(den: int, by_point: Iterable, measure: Measure, over: int) -> SummabilityReport:
    """The one integral: with (v, k) from ``_by_point``, v / den the value
    at the point of bit k in J(L) and w_k / W the measure of the S(L) atom
    keeping that point (``Measure._weights``, over ``Measure._denom``), the
    parts are the sums, over the points that S keeps, of v * w_k over
    v > 0 and of -v * w_k over v < 0, each over den * W, with 0 * inf = 0:
    a nonzero value on a point of weight +inf, or an infinite value on a
    point of nonzero weight, makes its part +inf.  A finite part is one
    int sum, and one ``Fraction`` unless it is 0, which is ``ZERO``."""
    weights, inf = measure._weights, measure._inf
    pos = neg = 0
    pos_inf = neg_inf = False
    for v, k in by_point:
        if v and over >> k & 1:
            if type(v) is int and not inf >> k & 1:  # the finite case
                if v > 0:
                    pos += v * weights[k]
                else:
                    neg -= v * weights[k]
            elif weights[k] or inf >> k & 1:  # an infinite value or weight, neither 0
                if (v if type(v) is int else v.sign) > 0:
                    pos_inf = True
                else:
                    neg_inf = True
    d = den * measure._denom
    return classify(POS_INF if pos_inf else Fraction(pos, d) if pos else ZERO,
                    POS_INF if neg_inf else Fraction(neg, d) if neg else ZERO)


def summability(g: SimpleFunction, measure: Measure,
                over: Optional[Congruence] = None) -> SummabilityReport:
    """Part-wise integrals and classification; never raises for defined input."""
    return _signed_sum(*_by_point(g, measure), measure, _keep_of(measure, over))


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
    return measure.value_by_keep(~measure.frame.congruence_of_element(element).keep & over)


def integral_of_representation(terms: List[Tuple[Fraction, str]],
                               measure: Measure,
                               over: Optional[Congruence] = None) -> ExtValue:
    """Direct sum over any pairwise-disjoint representation, term by term
    on the extended line; must agree with the canonical value for
    integrable functions."""
    q = _keep_of(measure, over)
    lat = measure.frame.as_lattice()
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


def characteristic_of_sublocale(frame: CongruenceFrame, s: Congruence) -> SimpleFunction:
    """chi_S = chi(theta_S^c) as a simple function over C(L)."""
    return characteristic_simple(frame.element_of(frame.complement(s)), frame.as_lattice())


def restrict_vs_multiply(g: SimpleFunction, measure: Measure,
                         s: Congruence) -> RestrictionWitness:
    """Integral over a complemented S versus the integral of g * chi_S;
    the two sides are computed independently and must agree exactly."""
    chi_s = characteristic_of_sublocale(measure.frame, s)
    left, _ = integrate_simple(g, measure, s)
    right, _ = integrate_simple(sf_mul(g, chi_s), measure, None)
    if left != right:
        raise ConsistencyError(
            f"restriction {format_extended(left)} != product {format_extended(right)}")
    return RestrictionWitness(left, right)


def indefinite_integral(g: SimpleFunction, measure: Measure) -> Measure:
    """S |-> integral of g over S; a measure on S(L) for nonnegative g, with
    the value g(j) * mu({j}) on the atom keeping the point j: the int
    products of the values and the weights, over the product of their
    denominators, and +inf where a nonzero value meets an infinite weight."""
    if not g.is_nonnegative():
        raise NotNonnegative("the indefinite integral needs a nonnegative function")
    den, by_point = _by_point(g, measure)
    weights, inf = list(measure._weights), 0
    for v, k in by_point:
        if measure._inf >> k & 1:
            if v:  # 0 * inf = 0
                inf |= 1 << k
        else:
            weights[k] *= v
    return _from_ints(measure.frame, den * measure._denom, weights, inf)


def nonnegativity_certificate(g: SimpleFunction, measure: Measure,
                              s: Congruence) -> bool:
    """Check that no point kept by S holds a negative value of g (that is,
    theta_S^c /\\ g(-,0) = 0); when it holds the integral over S is
    asserted to be nonnegative and True is returned."""
    _, by_point = _by_point(g, measure)
    q = _keep_of(measure, s)
    if any(v < 0 and q >> k & 1 for v, k in by_point):
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
    by_point = _by_point(f, measure,
                         "the function does not live on the measure's congruence frame")
    return report_value(_signed_sum(*by_point, measure, _keep_of(measure, over)))
