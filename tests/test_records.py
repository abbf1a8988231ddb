"""The contract of the library's immutable records: the ``Name(field=value,
...)`` repr, equality and hash by value, no assignment to a field, and
the checks, coercions and canonical form that ``FunctionSequence`` runs
at construction."""

from fractions import Fraction as F

import pytest

from locint import cutfunction as cf
from locint.bridge import BridgeReport
from locint.errors import CarrierMismatch, InvalidArgument
from locint.integrate import RestrictionWitness, SummabilityReport
from locint.lattice import powerset_lattice
from locint.rationals import POS_INF
from locint.simple import DecompositionStep, constant_simple, decompose_trace
from locint.verify import CriterionResult


def summable(pos=F(1, 2)):
    return SummabilityReport(pos, F(0), "summable")


def records(b4):
    """One instance of each frozen record, built afresh on every call."""
    one = cf.constant(F(1), b4)
    chi_x = cf.characteristic("x", b4)
    return [
        summable(),
        RestrictionWitness(F(3, 4), F(3, 4)),
        DecompositionStep(1, "x", constant_simple(F(1), b4), None),
        BridgeReport(F(1, 2), F(1, 2), summable(), summable()),
        cf.FunctionSequence((chi_x, one), one),
    ]


def test_repr_names_every_field_in_order(b4):
    rep = summable()
    assert repr(rep) == ("SummabilityReport(positive_part=Fraction(1, 2), "
                         "negative_part=Fraction(0, 1), classification='summable')")
    assert repr(RestrictionWitness(F(3, 4), POS_INF)) == (
        f"RestrictionWitness(restricted=Fraction(3, 4), multiplied={POS_INF!r})")
    stage = constant_simple(F(1), b4)
    assert repr(DecompositionStep(1, "x", stage, None)) == (
        f"DecompositionStep(k=1, cell='x', stage={stage!r}, residual_sup=None)")
    assert repr(BridgeReport(F(1, 2), None, rep, rep)) == (
        f"BridgeReport(classical_value=Fraction(1, 2), localic_value=None, "
        f"classical={rep!r}, localic={rep!r})")
    one = cf.constant(F(1), b4)
    # a prefix member equal to the cycle's last member rolls into the cycle
    assert repr(cf.FunctionSequence((one,), one)) == (
        f"FunctionSequence(prefix=(), tail={one!r})")
    assert repr(CriterionResult(1, "tables", True, "ok", 0.5)) == (
        "CriterionResult(number=1, name='tables', passed=True, detail='ok', seconds=0.5)")


def test_equality_and_hash_by_value(b4):
    for a, b in zip(records(b4), records(b4)):
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
    assert summable() != summable(F(1, 3))
    assert RestrictionWitness(F(1), F(2)) != RestrictionWitness(F(2), F(1))
    assert len(set(records(b4) + records(b4))) == len(records(b4))
    passed = CriterionResult(1, "tables", True, "ok", 0.5)
    assert passed == CriterionResult(1, "tables", True, "ok", 0.5)
    assert passed != CriterionResult(1, "tables", False, "ok", 0.5)


def test_fields_cannot_be_assigned(b4):
    for rec in records(b4):
        for field in type(rec).__match_args__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(rec, field, None)


def test_library_builds_equal_records(b4):
    steps = decompose_trace(cf.constant(F(1), b4), 3)
    assert steps == decompose_trace(cf.constant(F(1), b4), 3)
    assert steps[1] == DecompositionStep(2, b4.top, constant_simple(F(1, 2), b4), F(1, 2))


def test_function_sequence_rejects_mixed_carriers(b4):
    other = powerset_lattice(["p", "q"])
    with pytest.raises(CarrierMismatch, match="^the two functions live on different carriers$"):
        cf.FunctionSequence((cf.constant(F(1), other),), cf.constant(F(1), b4))
    seq = cf.FunctionSequence((cf.constant(F(2), b4),), cf.constant(F(1), b4))
    assert seq.at(0) == cf.constant(F(2), b4)
    assert seq.at(5) == seq.tail


def test_function_sequence_repeats_its_cycle(b4):
    one, two, chi_x = cf.constant(F(1), b4), cf.constant(F(2), b4), cf.characteristic("x", b4)
    seq = cf.FunctionSequence([chi_x], [one, two, one])
    assert seq.tail == (one, two, one) and seq.cycle == seq.tail
    assert [seq.at(k) for k in range(8)] == [chi_x, one, two, one, one, two, one, one]
    assert seq == cf.FunctionSequence((chi_x,), (one, two, one))
    assert cf.FunctionSequence((), one).cycle == (one,)
    with pytest.raises(InvalidArgument, match="^the tail cycle needs at least one function$"):
        cf.FunctionSequence((one,), [])
    other = cf.constant(F(1), powerset_lattice(["p", "q"]))
    with pytest.raises(CarrierMismatch, match="^the two functions live on different carriers$"):
        cf.FunctionSequence((one,), (one, other))
    with pytest.raises(CarrierMismatch, match="^the two functions live on different carriers$"):
        cf.FunctionSequence((), (other, one))


def test_replace_runs_the_construction_checks(b4):
    one, two = cf.constant(F(1), b4), cf.constant(F(2), b4)
    seq = cf.FunctionSequence((two,), one)
    other = cf.constant(F(1), powerset_lattice(["p", "q"]))
    with pytest.raises(CarrierMismatch):
        seq._replace(tail=other)
    with pytest.raises(CarrierMismatch):
        seq._replace(tail=(one, other))
    with pytest.raises(InvalidArgument):
        seq._replace(tail=())
    assert seq._replace(tail=[one, one]) == (((two,), one))
    assert seq._replace(tail=[one, two]) == (((), (two, one)))


def test_function_sequence_keeps_a_list_prefix_as_a_tuple(b4):
    one, chi_x = cf.constant(F(1), b4), cf.characteristic("x", b4)
    seq = cf.FunctionSequence([chi_x, one], one)
    assert type(seq.prefix) is tuple
    assert seq == cf.FunctionSequence((chi_x, one), one)
    assert hash(seq) == hash(cf.FunctionSequence((chi_x, one), one))
    assert repr(seq) == f"FunctionSequence(prefix=({chi_x!r},), tail={one!r})"
    replaced = seq._replace(prefix=[one])
    assert replaced.prefix == () and hash(replaced) == hash(((), one))


def test_function_sequences_with_equal_members_are_equal(b4):
    """The canonical form: the shortest cycle, with trailing prefix
    members equal to the cycle's last member rolled into it, and a cycle
    of one stored as the bare function."""
    f, g = cf.constant(F(1), b4), cf.characteristic("x", b4)
    pairs = [
        (cf.FunctionSequence((), f), cf.FunctionSequence((), (f,))),
        (cf.FunctionSequence((f,), (g, f)), cf.FunctionSequence((), (f, g))),
        (cf.FunctionSequence((), (f, f)), cf.FunctionSequence((), f)),
        (cf.FunctionSequence((g, f, g), (f, g, f, g)), cf.FunctionSequence((), (g, f))),
    ]
    for s, t in pairs:
        assert [s.at(k) for k in range(12)] == [t.at(k) for k in range(12)]
        assert s == t and hash(s) == hash(t) and s.tail == t.tail and s.prefix == t.prefix
    assert cf.FunctionSequence((), (f, f)).tail is f
    assert cf.FunctionSequence((g,), (f, g, f)).cycle == (f, g, f)  # no shorter period
    assert cf.FunctionSequence((g,), f) != cf.FunctionSequence((), f)
