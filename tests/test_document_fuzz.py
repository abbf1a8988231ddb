"""Mutated documents through the document commands: every run exits 0, 2 or
3, and no exception escapes ``cli.main``.

Each example takes a golden command (``tests/test_cli_golden.py``), mutates
one of its documents (list items dropped, inserted or duplicated; values
replaced by strings, numbers, booleans, null, lists, dicts and sublocale
refs), writes it in place of the original and runs the command in-process
with its output captured."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_cli_golden import CHAIN4, COMMANDS, ROOT, run_streams

DOCUMENT_FLAGS = ("--lattice", "--measure", "--function", "--space")


def readable(path: str) -> bool:
    try:
        json.loads((ROOT / path).read_text(encoding="utf-8"))
    except ValueError:
        return False
    return True


# (argv, position of one document in it), for every document that parses
SLOTS = [(argv, i + 1) for argv in COMMANDS.values() for i, flag in enumerate(argv)
         if flag in DOCUMENT_FLAGS and readable(argv[i + 1])]

REFS = ["L", "void", "open:", "open:x", "open:a", "closed:", "closed:2", "blocks:",
        "blocks:0,a|b,1", "blocks:0|x|y|1", "inf", "-inf", "1/0", "0", "1", "x", "a", "p",
        "1/2", "-3", ""]
KEYS = ["kind", "terms", "value", "values", "blocks", "atoms", "elements", "leq", "points",
        "algebra", "lambda", "on_open_weights", "breakpoints", "upper", "lower"]
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(-3, 10**6), st.floats(),
                   st.sampled_from(REFS), st.sampled_from(KEYS), st.text(max_size=3))
VALUES = st.recursive(
    LEAVES, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(
        st.sampled_from(KEYS + REFS), inner, max_size=2), max_leaves=4)


@st.composite
def mutated(draw, value):
    """`value` with one item dropped, inserted, duplicated or replaced, at a
    drawn depth."""
    if isinstance(value, (list, dict)) and value and draw(st.integers(0, 3)):
        key = draw(st.sampled_from(sorted(value) if isinstance(value, dict)
                                   else range(len(value))))
        copy = value.copy()
        copy[key] = draw(mutated(value[key]))
        return copy
    op = draw(st.sampled_from(["drop", "insert", "duplicate", "replace"]))
    if isinstance(value, list) and op != "replace":
        i = draw(st.integers(0, len(value)))
        if op == "insert" or not value:
            return value[:i] + [draw(VALUES)] + value[i:]
        i = min(i, len(value) - 1)
        return value[:i] + value[i + 1:] if op == "drop" else value[:i + 1] + value[i:]
    if isinstance(value, dict) and op != "replace":
        if op == "drop" and value:
            key = draw(st.sampled_from(sorted(value)))
            return {k: v for k, v in value.items() if k != key}
        return {**value, draw(st.sampled_from(KEYS + REFS)): draw(VALUES)}
    return draw(VALUES)


@st.composite
def cases(draw):
    """(argv, position of the mutated document, its bytes)."""
    argv, slot = draw(st.sampled_from(SLOTS))
    doc = json.loads((ROOT / argv[slot]).read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        doc = draw(mutated(doc))
    return argv, slot, json.dumps(doc).encode()


def simple_term(ref) -> tuple:
    argv = ["canonicalize", "--lattice", CHAIN4, "--carrier", "congruence", "--function", ""]
    return argv, 6, json.dumps({"kind": "simple", "terms": [["1", ref]]}).encode()


CONGRUENCES = ["congruences", "--lattice", ""]


@pytest.fixture(scope="module")
def document(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("fuzz") / "document.json"


@settings(max_examples=100, deadline=2000, derandomize=True)
@given(case=cases())
@example(case=simple_term({"blocks": [["0", "a"], 5, ["b", "1"]]}))
@example(case=simple_term({"blocks": [["0", ["a"]], ["b", "1"]]}))
@example(case=simple_term({"blocks": ["0a", "b1"]}))
@example(case=simple_term({"blocks": [{"0": 1, "a": 2}, ["b", "1"]]}))
@example(case=(CONGRUENCES, 2, '{"kind": "powerset", "atoms": ["\xe9"]}'.encode("latin-1")))
@example(case=(CONGRUENCES, 2, b"[" * 100_000 + b"]" * 100_000))
def test_mutated_documents_exit_0_2_or_3(document, case):
    argv, slot, data = case
    document.write_bytes(data)
    code, _, err = run_streams(argv[:slot] + [str(document)] + argv[slot + 1:])
    assert code in (0, 2, 3), err
