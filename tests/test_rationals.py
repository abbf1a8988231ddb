from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locint.rationals import (
    NEG_INF,
    POS_INF,
    UndefinedSum,
    ext_add,
    ext_le,
    ext_scale,
    ext_sub,
    format_extended,
    parse_extended,
    parse_rational,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=24)
extended = st.one_of(rationals, st.sampled_from([POS_INF, NEG_INF]))


def test_parse_and_format_round_trip():
    for text in ["3/4", "-3/4", "7", "-7", "0", "41/42"]:
        assert format_extended(parse_rational(text)) == text
    assert parse_extended("inf") is POS_INF
    assert parse_extended("-inf") is NEG_INF
    assert format_extended(POS_INF) == "inf"
    assert format_extended(NEG_INF) == "-inf"


def test_parse_rational_accepts_only_the_documented_grammar():
    for text, value in [("+2", 2), (" 3/4 ", Fraction(3, 4)), ("-0", 0), ("007", 7),
                        ("-6/4", Fraction(-3, 2))]:
        assert parse_rational(text) == value
    for text in ["1e5", "0.5", ".5", "1_0", "1/2.0", "1/-2", "", "/2", "1/", "1 / 2",
                 "- 1", "inf", "nan", "\u0661"]:
        with pytest.raises(ValueError):
            parse_rational(text)
    with pytest.raises(ValueError):
        parse_extended("1e5")


def test_undefined_sum():
    with pytest.raises(UndefinedSum):
        ext_add(POS_INF, NEG_INF)
    assert ext_add(POS_INF, POS_INF) is POS_INF
    assert ext_sub(Fraction(1), NEG_INF) is POS_INF


def test_zero_times_infinity_convention():
    assert ext_scale(Fraction(0), POS_INF) == Fraction(0)
    assert ext_scale(Fraction(0), NEG_INF) == Fraction(0)
    assert ext_scale(Fraction(-2), POS_INF) is NEG_INF


@settings(max_examples=60, deadline=None, derandomize=True)
@given(extended, extended)
def test_order_is_total(a, b):
    assert ext_le(a, b) or ext_le(b, a)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(extended, extended, extended)
def test_order_is_transitive(a, b, c):
    if ext_le(a, b) and ext_le(b, c):
        assert ext_le(a, c)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(rationals, extended)
def test_addition_monotone_in_extended_arg(q, v):
    assert ext_le(ext_add(q, v), ext_add(q + 1, v)) or v is POS_INF
