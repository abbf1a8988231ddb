"""The pointfree integral of simple functions against a measure on S(L).

A simple function over the congruence frame has canonical terms
r_i * chi(theta_i) where each term element theta_i is the complement of
the congruence of a sublocale S_i; its integral over a sublocale S is
sum_i r_i * mu(S_i /\\ S) with the 0 * inf = 0 convention.  The signed case
goes through the positive/negative parts: it is integrable when at least
one part has finite integral, summable when both do.  The parts are summed
straight from the signed canonical terms (the positive part's terms are
g's positive terms plus a 0-cell, which adds 0), and each part is one
integer numerator over the product of the denominators, made a
``Fraction`` once.  The same code path serves nonnegative functions (whose
negative part is zero), so agreement of the two definitions is a testable
fact rather than an assumption.  The indefinite integral of a nonnegative g
is additive in S, so it is the ``Measure`` built from the integrals over
the |J| atoms of S(L).  The measure is read at the keep-mask of S_i /\\ S.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, List, NamedTuple, Optional, Tuple

from .congruence import Congruence, SublocaleView
from .errors import (
    ConsistencyError,
    NotIntegrable,
    NotNonnegative,
)
from .lattice import check_same_carrier
from .measure import Measure
from .rationals import (
    POS_INF,
    ZERO,
    ExtValue,
    Infinite,
    ext_le,
    ext_sub,
    format_extended,
    is_finite,
    parse_rational,
)
from .simple import SimpleFunction, canonicalize, sf_mul, to_cut_function

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


def _term_measure(measure: Measure, element: str, over: int) -> ExtValue:
    """mu(S_i /\\ S) for the term element theta_i = theta_{S_i}^c and the
    sublocale S with keep-mask `over`: S_i keeps the complement of theta_i's
    keep-mask q_i, and a meet of sublocales keeps the intersection, so the
    value sits at the keep-mask ~q_i & over."""
    frame = measure.view.frame
    return measure.value_by_keep(~frame.congruence_of_element(element).keep & over)


def _signed_sums(terms, measure: Measure, over: int) -> Tuple[ExtValue, ExtValue]:
    """(sum of r * mu(S_i /\\ S) over the terms with r > 0, sum of -r * mu
    over those with r < 0), 0 * inf = 0.  A measure value is a Fraction >= 0
    or +inf, so a part is +inf or an int over the product of denominators."""
    parts = [[0, 1], [0, 1]]  # numerator and denominator for r > 0, r < 0
    for r, element in terms:
        n, d = r.as_integer_ratio()
        if not n:
            continue
        part = parts[n < 0]
        m = _term_measure(measure, element, over)
        if isinstance(m, Infinite):
            part[1] = 0  # +inf, absorbing
        elif part[1]:
            mn, md = m.as_integer_ratio()
            part[0] = part[0] * d * md + abs(n) * mn * part[1]
            part[1] *= d * md
    return tuple(Fraction(num, den) if den else POS_INF for num, den in parts)


def summability(g: SimpleFunction, measure: Measure,
                over: Optional[Congruence] = None) -> SummabilityReport:
    """Part-wise integrals and classification; never raises for defined input."""
    check_same_carrier(g.carrier, measure.view.frame.as_lattice(), _SIMPLE_OFF_FRAME)
    return classify(*_signed_sums(g.terms, measure, _keep_of(measure, over)))


def integrate_simple(g: SimpleFunction, measure: Measure,
                     over: Optional[Congruence] = None) -> Tuple[ExtValue, SummabilityReport]:
    """The integral of g over a sublocale, via positive/negative parts."""
    report = summability(g, measure, over)
    return report_value(report), report


def integral_of_representation(view: SublocaleView,
                               terms: List[Tuple[Fraction, str]],
                               measure: Measure,
                               over: Optional[Congruence] = None) -> ExtValue:
    """Direct sum over any pairwise-disjoint representation; must agree with
    the canonical value for integrable functions."""
    q = _keep_of(measure, over)
    lat = view.frame.as_lattice()
    for i, (_, a) in enumerate(terms):
        for _, b in terms[i + 1:]:
            if lat.meet(a, b) != lat.bottom:
                raise ConsistencyError(
                    f"representation terms {a!r}, {b!r} are not disjoint")
    terms = [(parse_rational(r), element) for r, element in terms]
    return report_value(classify(*_signed_sums(terms, measure, q)))


def characteristic_of_sublocale(view: SublocaleView, s: Congruence) -> SimpleFunction:
    """chi_S = chi(theta_S^c) as a simple function over C(L)."""
    frame = view.frame
    comp = frame.complement(s)
    return canonicalize(frame.as_lattice(), ((Fraction(1), comp.partition_name()),))


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
    """S |-> integral of g over S; a measure on S(L) for nonnegative g."""
    if not g.is_nonnegative():
        raise NotNonnegative("the indefinite integral needs a nonnegative function")
    check_same_carrier(g.carrier, measure.view.frame.as_lattice(), _SIMPLE_OFF_FRAME)
    view = measure.view
    return Measure(view, [_signed_sums(g.terms, measure, 1 << k)[0]
                          for k in range(len(view.frame.lattice._jirr))])


def nonnegativity_certificate(g: SimpleFunction, measure: Measure,
                              s: Congruence) -> bool:
    """Check theta_S^c /\\ g(-,0) = 0; when it holds the integral over S is
    asserted to be nonnegative and True is returned."""
    check_same_carrier(g.carrier, measure.view.frame.as_lattice(), _SIMPLE_OFF_FRAME)
    frame = measure.view.frame
    comp = frame.complement(s)
    facade = frame.as_lattice()
    side = facade.meet(comp.partition_name(), to_cut_function(g).lower_at(ZERO))
    if side != facade.bottom:
        return False
    value, _ = integrate_simple(g, measure, s)
    if not ext_le(ZERO, value):
        raise ConsistencyError(
            f"certificate held but the integral is {format_extended(value)}")
    return True


# -- the general integral ------------------------------------------------------------


def _nonneg_general(f: CutFunction, measure: Measure, over: int) -> ExtValue:
    """Supremum of integrals of simple minorants of a nonnegative f.

    The integrand is a rational step function, so the supremum is attained
    by its own lower staircase: each finite-level cell upper[j] /\\
    lower[j+1] contributes breakpoint * measure, and the region where the
    upper ladder never drops to bottom contributes +inf exactly when it
    meets `over` in positive measure (minorants put arbitrarily large
    constants there)."""
    at = f.carrier._at
    *cells, inf_region = f._cells()
    if inf_region and _term_measure(measure, at[inf_region], over) != ZERO:
        return POS_INF
    return _signed_sums(zip(f.breakpoints, map(at.__getitem__, cells)), measure, over)[0]


def integrate_general(f: CutFunction, measure: Measure,
                      over: Optional[Congruence] = None) -> ExtValue:
    """Integral of an arbitrary (possibly extended) function over C(L),
    defined through the parts f+ = f \\/ 0 and f- = (-f) \\/ 0."""
    from .cutfunction import constant, join_meet, negate

    check_same_carrier(f.carrier, measure.view.frame.as_lattice(),
                       "the function does not live on the measure's congruence frame")
    q = _keep_of(measure, over)
    zero_fn = constant(ZERO, f.carrier)
    f_plus = join_meet(f, zero_fn)[0]
    f_minus = join_meet(negate(f), zero_fn)[0]
    pos = _nonneg_general(f_plus, measure, q)
    neg = _nonneg_general(f_minus, measure, q)
    return report_value(classify(pos, neg))
