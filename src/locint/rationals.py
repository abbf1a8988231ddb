"""Exact rational scalars extended with the two infinities.

Every scalar in the package is a ``fractions.Fraction``; floating point is
never used.  The extended line adds +inf/-inf endpoints with the usual
order, absorption under addition, and the ``0 * inf = 0`` convention for
scalar multiples, which is the convention integration against measures
with infinite values needs.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Union


class UndefinedSum(ArithmeticError):
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

ExtValue = Union[Fraction, Infinite]


def is_finite(v: ExtValue) -> bool:
    return isinstance(v, Fraction)


#: The documented grammar: an optional sign, digits, and optionally "/digits".
_RATIONAL = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def parse_rational(value) -> Fraction:
    """Parse "p/q" or integer strings (plain ints are accepted too);
    exponents, decimals and digit separators are rejected."""
    if isinstance(value, bool):
        raise ValueError(f"not a rational: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        text = value.strip()
        if _RATIONAL.fullmatch(text):
            return Fraction(text)
    raise ValueError(f"not a rational: {value!r}")


def parse_extended(value) -> ExtValue:
    if isinstance(value, str):
        text = value.strip()
        if text in ("inf", "+inf"):
            return POS_INF
        if text == "-inf":
            return NEG_INF
    return parse_rational(value)


def format_rational(q: Fraction) -> str:
    return str(q)


def format_extended(v: ExtValue) -> str:
    return repr(v) if isinstance(v, Infinite) else str(v)


def ext_neg(v: ExtValue) -> ExtValue:
    return -v


def ext_le(a: ExtValue, b: ExtValue) -> bool:
    if isinstance(a, Infinite):
        return a.sign < 0 or (isinstance(b, Infinite) and b.sign > 0)
    if isinstance(b, Infinite):
        return b.sign > 0
    return a <= b


def ext_lt(a: ExtValue, b: ExtValue) -> bool:
    return ext_le(a, b) and not ext_le(b, a)


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


def ext_sum(values: Iterable[ExtValue]) -> ExtValue:
    total: ExtValue = Fraction(0)
    for v in values:
        total = ext_add(total, v)
    return total
