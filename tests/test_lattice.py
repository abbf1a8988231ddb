import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from locint.documents import build_lattice
from locint.errors import (
    MalformedDocument,
    NotALattice,
    NotComplemented,
    NotDistributive,
)
from locint.lattice import (
    FiniteLattice,
    powerset_lattice,
    subset_name,
)


def test_powerset_b4_structure(b4):
    assert set(b4.elements) == {"0", "x", "y", "1"}
    assert b4.bottom == "0" and b4.top == "1"
    assert b4.meet("x", "y") == "0"
    assert b4.join("x", "y") == "1"


def test_chain_is_distributive(c3):
    assert c3.bottom == "0" and c3.top == "1"
    assert c3.meet("m", "1") == "m"


def test_diamond_m3_is_rejected():
    with pytest.raises(NotDistributive) as err:
        FiniteLattice(
            ["0", "a", "b", "c", "1"],
            [("0", "a"), ("0", "b"), ("0", "c"), ("a", "1"), ("b", "1"), ("c", "1")])
    assert "triple" in str(err.value)


def test_missing_meet_is_rejected():
    # two maximal elements: no join
    with pytest.raises(NotALattice):
        FiniteLattice(["0", "a", "b"], [("0", "a"), ("0", "b")])


def test_complement_examples(b4, c3):
    assert b4.complement("x") == "y"
    assert b4.complement("0") == "1"
    with pytest.raises(NotComplemented):
        c3.complement("m")


def test_complement_is_involutive(b8):
    for a in b8.complemented_elements():
        assert b8.complement(b8.complement(a)) == a


def test_lattice_laws_exhaustively(b8, c3):
    for lat in (b8, c3):
        els = lat.elements
        for a in els:
            assert lat.meet(a, a) == a and lat.join(a, a) == a
            assert lat.leq(lat.bottom, a) and lat.leq(a, lat.top)
            for b in els:
                assert lat.meet(a, b) == lat.meet(b, a)
                assert lat.join(a, b) == lat.join(b, a)
                assert lat.meet(a, lat.join(a, b)) == a
                assert lat.join(a, lat.meet(a, b)) == a
                for c in els:
                    assert lat.meet(lat.meet(a, b), c) == lat.meet(a, lat.meet(b, c))
                    assert lat.join(lat.join(a, b), c) == lat.join(a, lat.join(b, c))


def test_complemented_elements_form_a_sublattice():
    lat = build_lattice({"kind": "poset",
                         "elements": ["1", "2", "3", "4", "6", "12"],
                         "leq": [["1", "2"], ["1", "3"], ["2", "4"], ["2", "6"],
                                 ["3", "6"], ["4", "12"], ["6", "12"]]})
    bl = set(lat.complemented_elements())
    assert bl == {"1", "3", "4", "12"}
    for a in bl:
        for b in bl:
            assert lat.meet(a, b) in bl
            assert lat.join(a, b) in bl


def test_build_lattice_document_errors():
    with pytest.raises(MalformedDocument):
        build_lattice({"kind": "nope"})
    with pytest.raises(MalformedDocument):
        build_lattice({"kind": "powerset", "atoms": ["x", "x"]})
    with pytest.raises(MalformedDocument):
        build_lattice({"kind": "poset", "elements": ["a"], "leq": [["a", "b"]]})


@pytest.mark.parametrize("elements", [[], ["a", "a"]])
def test_constructor_names_an_unknown_pair_before_the_element_list(elements):
    # an empty or duplicate list comes next
    with pytest.raises(MalformedDocument, match=r"^order pair \('a', 'z'\) mentions an unknown"):
        FiniteLattice(elements, [("a", "z")])
    with pytest.raises(MalformedDocument, match=r"^(a lattice needs|duplicate element names)"):
        FiniteLattice(elements, [("a", "a")] if elements else [])


@pytest.mark.parametrize("pair", [["a", ["b"]], [["a"], "b"], ["a", 1], [None, "b"],
                                  ["a", {"b": 1}]])
def test_build_lattice_rejects_non_string_pair_members(pair):
    with pytest.raises(MalformedDocument, match=r"^bad order pair: "):
        build_lattice({"kind": "poset", "elements": ["a", "b"], "leq": [pair]})


def test_atoms_and_booleanness(b8, c3):
    assert set(b8.atoms()) == {"x", "y", "z"}
    assert b8.is_boolean()
    assert not c3.is_boolean()
    assert c3.atoms() == ("m",)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sets(st.sampled_from(["a", "b", "c", "d"]), max_size=4),
       st.sets(st.sampled_from(["a", "b", "c", "d"]), max_size=4))
def test_powerset_against_set_arithmetic(s, t):
    atoms = ["a", "b", "c", "d"]
    lat = powerset_lattice(atoms)
    ns, nt = subset_name(s, atoms), subset_name(t, atoms)
    assert lat.meet(ns, nt) == subset_name(s & t, atoms)
    assert lat.join(ns, nt) == subset_name(s | t, atoms)
    assert lat.leq(ns, nt) == (s <= t)
    assert lat.complement(ns) == subset_name(set(atoms) - s, atoms)
