from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracle import fractions_upto
from locint import cli
from locint import cutfunction as cf
from locint import simple as sf
from locint.bridge import ClassicalSimpleFunction, FiniteMeasurableSpace
from locint.errors import InvalidArgument, UndefinedOperation
from locint.lattice import powerset_lattice
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

rationals = st.sampled_from(fractions_upto(-50, 50, 24))
extended = st.one_of(rationals, st.sampled_from([POS_INF, NEG_INF]))


def test_parse_and_format_round_trip():
    for text in ["3/4", "-3/4", "7", "-7", "0", "41/42"]:
        assert format_extended(parse_rational(text)) == text
    assert parse_extended("inf") is POS_INF
    assert parse_extended("-inf") is NEG_INF
    assert format_extended(POS_INF) == "inf"
    assert format_extended(NEG_INF) == "-inf"


def test_parse_rational_accepts_only_the_documented_grammar():
    for text, value in [("+2", 2), ("-0", 0), ("007", 7), ("-6/4", Fraction(-3, 2))]:
        assert parse_rational(text) == value
    for text in ["1e5", "0.5", ".5", "1_0", "1/2.0", "1/-2", "", "/2", "1/", "1 / 2",
                 "- 1", " 3/4 ", "inf", "nan", "\u0661"]:
        with pytest.raises(ValueError):
            parse_rational(text)
    for text in ["1/0", "-3/0", "0/00"]:
        with pytest.raises(InvalidArgument, match=f"^not a rational: '{text}'$"):
            parse_rational(text)
        with pytest.raises(InvalidArgument, match=f"^not a rational: '{text}'$"):
            parse_extended(text)
    assert parse_rational("3/010") == Fraction(3, 10)
    for text in ["1e5", " inf", "-inf ", "+inf"]:
        with pytest.raises(ValueError):
            parse_extended(text)


def test_parse_rational_passes_fractions_and_rejects_other_numbers():
    q = Fraction(3, 4)
    assert parse_rational(q) is q
    assert parse_rational(7) == 7 and type(parse_rational(7)) is Fraction

    class Sub(Fraction):
        pass

    assert parse_rational(Sub(5, 6)) == Fraction(5, 6)
    assert type(parse_rational(Sub(5, 6))) is Fraction
    for value in (0.5, 0.1, float("inf"), True, False, Decimal("0.5"), 1j, None, [1]):
        with pytest.raises(InvalidArgument, match="^not a rational: "):
            parse_rational(value)
    assert issubclass(InvalidArgument, ValueError)


def test_library_entry_points_reject_floats():
    """Floats, and strings with a zero denominator, at each entry point."""
    lat = powerset_lattice(["x", "y"])
    g = sf.canonicalize(lat, [(Fraction(1), "x")])
    f = cf.constant(Fraction(1), lat)
    space = FiniteMeasurableSpace.powerset(["p"], {"p": Fraction(1)})
    calls = [
        lambda: sf.canonicalize(lat, [(0.1, "1")]),
        lambda: sf.SimpleFunction(lat, [(0.5, "1")]),
        lambda: sf.constant_simple(0.5, lat),
        lambda: sf.canonicalize(lat, [(Fraction(1), "x"), (0.5, "y")]),
        lambda: sf.sf_scale(0.1, g),
        lambda: sf.sf_scale(True, g),
        lambda: cf.scale(0.1, f),
        lambda: cf.constant(0.5, lat),
        lambda: cf.CutFunction(lat, (0.5,), ("1", "0"), ("0", "1")),
        lambda: ClassicalSimpleFunction(space, {"p": 0.5}),
        lambda: sf.canonicalize(lat, [("1/0", "x")]),
        lambda: sf.sf_scale("1/0", g),
        lambda: sf.constant_simple("-3/0", lat),
        lambda: cf.scale("-3/0", f),
        lambda: cf.constant("1/0", lat),
    ]
    for call in calls:
        with pytest.raises(InvalidArgument, match="^not a rational: "):
            call()
    assert sf.sf_scale("3/2", g) == sf.canonicalize(lat, [(Fraction(3, 2), "x")])


def test_undefined_sum():
    with pytest.raises(UndefinedSum):
        ext_add(POS_INF, NEG_INF)
    assert issubclass(UndefinedSum, UndefinedOperation)
    assert issubclass(UndefinedSum, ArithmeticError)
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


def test_undefined_sum_exits_3_with_a_message(monkeypatch, capsys):
    def undefined(args):
        return ext_add(POS_INF, NEG_INF)

    monkeypatch.setattr(cli, "cmd_verify", undefined)
    assert cli.main(["verify"]) == 3
    assert capsys.readouterr().err == "error: inf + -inf is undefined\n"
