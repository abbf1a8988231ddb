"""The messages of faulty space documents.

A space document lists its points, an algebra ("powerset" or a list of
subsets) and lambda, keyed by point (powerset) or by atom name (listed
algebra).  Each document below has a single fault, in lambda or in the
algebra, or an unclosed algebra together with one lambda fault; both
``load_space`` (exception class and message) and ``locint validate
--space`` (exit code and stderr) must name it as recorded here.
Documents with two faults pin the order in which faults are named: every
lambda value is parsed first; then the algebra is checked, except that a
powerset names missing points and keys that name no point after its size
cap and before its duplicate points; then two members of the algebra with
one name; then a missing weight, a key that names no atom and a value out
of range, in that order."""

import json

import pytest

from locint.cli import main
from locint.documents import load_space
from locint.errors import MalformedDocument, SizeLimitExceeded

PQ = {"points": ["p", "q"], "algebra": "powerset"}
XYZ = {"points": ["x", "y", "z"], "algebra": [["x"], ["y", "z"]]}
UNCLOSED = {"points": ["x", "y", "z"], "algebra": [["x"], ["x", "y"]]}
NOT_CLOSED = "the algebra is not closed under complement at ['x']"

CASES = {
    # the powerset branch: lambda maps points to values
    "powerset_missing": (PQ, {"p": "1"}, "no weight for point(s) ['q']"),
    "powerset_missing_two": ({**PQ, "points": ["p", "q", "r"]}, {"q": "1"},
                             "no weight for point(s) ['p', 'r']"),
    "powerset_unparseable": (PQ, {"p": "half", "q": "1"},
                             "bad extended rational in lambda['p']: 'half'"),
    "powerset_non_atom": (PQ, {"p": "1", "q": "2", "zzz": "5"},
                          "weights given for non-atoms ['zzz']"),
    "powerset_negative": (PQ, {"p": "1", "q": "-2"},
                          "measure values must lie in [0, inf]; got -2"),
    # a listed algebra: lambda maps atom names to values
    "listed_missing": (XYZ, {"x": "1"}, "no weight for atom '{y,z}'"),
    "listed_unparseable": (XYZ, {"x": "1", "{y,z}": "1.x"},
                           "bad extended rational in lambda['{y,z}']: '1.x'"),
    "listed_non_atom": (XYZ, {"x": "1", "{y,z}": "2", "y": "3"},
                        "weights given for non-atoms ['y']"),
    "listed_non_atom_member": (XYZ, {"x": "1", "{y,z}": "2", "1": "3"},
                               "weights given for non-atoms ['1']"),
    "listed_negative": (XYZ, {"x": "-1", "{y,z}": "4"},
                        "measure values must lie in [0, inf]; got -1"),
    # an unclosed algebra is named before any lambda fault but an unparseable value
    "unclosed": (UNCLOSED, {"x": "1", "y": "1", "z": "1"}, NOT_CLOSED),
    "unclosed_missing": (UNCLOSED, {}, NOT_CLOSED),
    "unclosed_non_atom": (UNCLOSED, {"x": "1", "q": "2"}, NOT_CLOSED),
    "unclosed_negative": (UNCLOSED, {"x": "-1"}, NOT_CLOSED),
}

SEVEN = {"points": [f"p{i}" for i in range(7)], "algebra": "powerset"}
CAPPED = "a powerset over 7 points exceeds the 64-set limit"

TWO_FAULTS = {
    # an unparseable value is named first
    "unclosed_unparseable": (UNCLOSED, {"x": "half"}, MalformedDocument,
                             "bad extended rational in lambda['x']: 'half'"),
    "missing_unparseable": (XYZ, {"{y,z}": "half"}, MalformedDocument,
                            "bad extended rational in lambda['{y,z}']: 'half'"),
    "non_atom_unparseable": (XYZ, {"x": "1", "{y,z}": "2", "y": "half"}, MalformedDocument,
                             "bad extended rational in lambda['y']: 'half'"),
    # then a missing weight, then a key that names no atom, then a value out of range
    "missing_non_atom": (XYZ, {"x": "1", "y": "2"}, MalformedDocument,
                         "no weight for atom '{y,z}'"),
    "missing_negative": (XYZ, {"x": "-1"}, MalformedDocument, "no weight for atom '{y,z}'"),
    "non_atom_negative": (XYZ, {"x": "-1", "{y,z}": "2", "y": "2"}, MalformedDocument,
                          "weights given for non-atoms ['y']"),
    "powerset_missing_non_atom": (PQ, {"p": "1", "zzz": "1"}, MalformedDocument,
                                  "no weight for point(s) ['q']"),
    "powerset_non_atom_negative": (PQ, {"p": "-1", "q": "1", "zzz": "1"}, MalformedDocument,
                                   "weights given for non-atoms ['zzz']"),
    # duplicate points are named before a value out of range
    "duplicate_negative": ({**PQ, "points": ["p", "p"]}, {"p": "-1"}, MalformedDocument,
                           "duplicate point names"),
    # two members with one name are named before a missing weight or a value
    # out of range
    "shared_name_missing": ({"points": ["x", "y", "{x,y}"], "algebra": [["x", "y"], ["{x,y}"]]},
                            {}, MalformedDocument,
                            "two members of the algebra are both named '{x,y}'"),
    "shared_name_negative": ({"points": ["0", "a"], "algebra": "powerset"}, {"0": "-1", "a": "1"},
                             MalformedDocument, "two members of the algebra are both named '0'"),
    # a powerset beyond the cap is named before its weights
    "capped_missing": (SEVEN, {"p0": "1"}, SizeLimitExceeded, CAPPED),
    "capped_non_atom": (SEVEN, {**{f"p{i}": "1" for i in range(7)}, "zzz": "1"},
                        SizeLimitExceeded, CAPPED),
}


def assert_named(tmp_path, capsys, doc, error, message):
    with pytest.raises(error) as info:
        load_space(doc)
    assert type(info.value) is error and str(info.value) == message
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    code = main(["validate", "--space", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("case", sorted(CASES))
def test_single_fault_space_documents(case, tmp_path, capsys):
    algebra, lam, message = CASES[case]
    assert_named(tmp_path, capsys, {**algebra, "lambda": lam}, MalformedDocument, message)


@pytest.mark.parametrize("case", sorted(TWO_FAULTS))
def test_which_of_two_faults_is_named(case, tmp_path, capsys):
    algebra, lam, error, message = TWO_FAULTS[case]
    assert_named(tmp_path, capsys, {**algebra, "lambda": lam}, error, message)
