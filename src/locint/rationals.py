"""Exact rational scalars extended with the two infinities.

Every scalar in the package is a ``fractions.Fraction``; floating point is
never used.  ``parse_rational`` is the one coercion of the library's entry
points: floats, bools and Decimals raise ``InvalidArgument``.  The extended
line adds +inf/-inf endpoints with the usual
order, absorption under addition, and the ``0 * inf = 0`` convention for
scalar multiples, which is the convention integration against measures
with infinite values needs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import List, Sequence, Tuple, Union

from .errors import InvalidArgument, UndefinedOperation


class UndefinedSum(UndefinedOperation, ArithmeticError):
    """Raised for inf + (-inf), which has no value on the extended line."""


class Infinite:
    """A signed infinity endpoint.  Use the POS_INF / NEG_INF singletons."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self) -> str:
        return "inf" if self.sign > 0 else "-inf"

    def __neg__(self) -> "Infinite":
        return NEG_INF if self.sign > 0 else POS_INF


POS_INF = Infinite(1)
NEG_INF = Infinite(-1)
ZERO = Fraction(0)

ExtValue = Union[Fraction, Infinite]


def is_finite(v: ExtValue) -> bool:
    return isinstance(v, Fraction)


#: The documented grammar: an optional sign, digits, and optionally "/digits"
#: naming a nonzero denominator.
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/0*[1-9][0-9]*)?")


def parse_rational(value) -> Fraction:
    """A ``Fraction`` as is; a plain int, or a "p/q" or integer string,
    converted.  Floats, bools, Decimals, exponents, decimal points, digit
    separators, surrounding whitespace and a zero denominator raise
    InvalidArgument."""
    if type(value) is Fraction:
        return value
    if isinstance(value, Fraction):
        return Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str) and _RATIONAL.fullmatch(value):
        return Fraction(value)
    raise InvalidArgument(f"not a rational: {value!r}")


def over_common_denominator(values: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """(D, [v * D for v in values]) for D the least common denominator of
    the values: ints that sort, compare, add and subtract as the values do
    (and multiply to their products times D * D)."""
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*[d for _, d in ratios])
    return den, [n * (den // d) for n, d in ratios]


def parse_extended(value) -> ExtValue:
    """``parse_rational``, or one of exactly "inf" and "-inf"."""
    if value == "inf":
        return POS_INF
    if value == "-inf":
        return NEG_INF
    return parse_rational(value)


def format_extended(v: ExtValue) -> str:
    return repr(v) if isinstance(v, Infinite) else str(v)


def ext_le(a: ExtValue, b: ExtValue) -> bool:
    if isinstance(a, Infinite):
        return a.sign < 0 or (isinstance(b, Infinite) and b.sign > 0)
    if isinstance(b, Infinite):
        return b.sign > 0
    return a <= b


def ext_add(a: ExtValue, b: ExtValue) -> ExtValue:
    if isinstance(a, Infinite):
        if isinstance(b, Infinite) and b.sign != a.sign:
            raise UndefinedSum("inf + -inf is undefined")
        return a
    if isinstance(b, Infinite):
        return b
    return a + b


def ext_sub(a: ExtValue, b: ExtValue) -> ExtValue:
    return ext_add(a, -b)


def ext_scale(r: Fraction, v: ExtValue) -> ExtValue:
    """r * v with the 0 * inf = 0 convention."""
    if isinstance(v, Infinite):
        if r == 0:
            return Fraction(0)
        return v if r > 0 else -v
    return r * v
