"""Mutated documents through the document commands.

``test_mutated_documents_exit_0_2_or_3``: every run exits 0, 2 or 3, and no
exception escapes ``cli.main``.  Each example takes a golden command
(``tests/test_cli_golden.py``), mutates one of its documents (list items
dropped, inserted or duplicated; values replaced by strings, numbers,
booleans, null, lists, dicts and sublocale refs), writes it in place of the
original and runs the command in-process with its output captured.

``test_one_broken_rule_exits_2_with_its_message`` is driven by
``documents.GRAMMAR``: it takes a document of a golden command that exits
0, breaks exactly one rule of the grammar (not a JSON object, an unknown
kind, a key outside the kind, a value or one item of a value of the wrong
shape), and expects exit 2 with that rule's message and nothing on stdout."""

import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from locint.documents import (
    GRAMMAR, _extended, _list, _map, _names, _rational, _strings, _term, _walk)
from test_cli_golden import B4, CHAIN4, COMMANDS, GOLDEN, ROOT, run_streams

DOCUMENT_FLAGS = ("--lattice", "--measure", "--function", "--space")


def readable(path: str) -> bool:
    try:
        json.loads((ROOT / path).read_text(encoding="utf-8"))
    except (OSError, ValueError):
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
@example(case=(CONGRUENCES, 2, b'{"kind": ["powerset"], "atoms": ["x"]}'))
@example(case=(CONGRUENCES, 2, b'{"kind": {"powerset": 1}, "atoms": ["x"]}'))
@example(case=(CONGRUENCES, 2, b'{"kind": 1, "atoms": ["x"]}'))
@example(case=(CONGRUENCES, 2, b'{"kind": null, "atoms": ["x"]}'))
@example(case=(CONGRUENCES, 2, b'{"kind": "powerset", "atoms": ["x"], "zzz": 1}'))
def test_mutated_documents_exit_0_2_or_3(document, case):
    argv, slot, data = case
    document.write_bytes(data)
    code, _, err = run_streams(argv[:slot] + [str(document)] + argv[slot + 1:])
    assert code in (0, 2, 3), err


# -- one rule of the grammar broken ---------------------------------------------

def grammar_of(argv, flag) -> str:
    if flag == "--function":
        return "classical" if argv[0] == "bridge" else "function"
    return flag[2:]


def exits_0(name) -> bool:
    return (GOLDEN / f"{name}.text.out").read_text(encoding="utf-8").startswith("exit: 0\n")


# (argv, position of one document in it, its grammar), for every document of
# a golden command that exits 0: each is inside the grammar and loads
VALID_SLOTS = [(argv, i + 1, grammar_of(argv, flag))
               for name, argv in COMMANDS.items() if exits_0(name)
               for i, flag in enumerate(argv) if flag in DOCUMENT_FLAGS]
ALL_KEYS = sorted({key for grammar in GRAMMAR.values()
                   for rules in grammar["kinds"].values() for key in rules})
ANY = st.one_of(st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
                st.text(max_size=3), st.lists(st.integers(0, 2), max_size=2),
                st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))
NOT_RATIONAL = st.one_of(st.none(), st.booleans(), st.integers(-3, 10**6), st.floats(),
                         st.sampled_from(["", "x", "1.5", "1e5", "1_0", "1/0", "1/", "/2",
                                          "inf", "infinity", "nan", [], ["1"], {}]))
NOT_STRING = st.one_of(st.none(), st.booleans(), st.integers(-3, 3),
                       st.lists(st.text(max_size=1), max_size=2))


def not_strings(n=None):
    """Values that are not a list of strings (of `n` items, if given)."""
    strings = st.lists(st.sampled_from(["a", "b"]), max_size=3)
    wrong = [NOT_STRING.filter(lambda v: not isinstance(v, list)),
             st.dictionaries(st.text(max_size=1), st.just("a"), max_size=1),
             st.tuples(strings, NOT_STRING).map(lambda t: t[0] + [t[1]])]
    if n is not None:
        wrong.append(strings.filter(lambda v: len(v) != n))
    return st.one_of(wrong)


@st.composite
def bad_item(draw, item, *rule):
    """An item that breaks the item shape `item`, and the message it raises
    (for a map's value, a function of the key)."""
    if item in (_rational, _extended):
        value = draw(NOT_RATIONAL.filter(lambda v: item is _rational or v != "inf"))
        return value, lambda *key: rule[0].format(*key, value)
    if item is _strings:
        value = draw(not_strings(*rule[1:]))
        return value, lambda: rule[0].format(value)
    assert item is _term
    if draw(st.booleans()):
        value = draw(st.one_of(NOT_STRING.filter(lambda v: not isinstance(v, list)),
                               st.lists(st.just("1"), max_size=3).filter(lambda v: len(v) != 2)))
        return value, lambda: rule[0].format(value)
    number = draw(NOT_RATIONAL)
    return [number, "L"], lambda: rule[1].format(number)


@st.composite
def broken_value(draw, value, shape, message, *item_rule):
    """`value` with its shape broken, at the top or in one item, and the
    message of the broken rule."""
    if shape in (_rational, _extended):
        bad, text = draw(bad_item(shape, message))
        return bad, text()
    if shape is _strings or (shape is _names and draw(st.booleans())):
        bad = draw(not_strings())
        return bad, message.format(bad)
    if shape is _names:  # one name holding a separator of a blocks ref
        name = draw(st.tuples(st.text(max_size=2), st.sampled_from(",|"),
                              st.text(max_size=2)).map("".join))
        i = draw(st.integers(0, len(value)))
        return value[:i] + [name] + value[i:], item_rule[0].format(name)
    if shape is _map:
        if draw(st.booleans()):
            bad = draw(ANY.filter(lambda v: not isinstance(v, dict)))
            return bad, message
        key = draw(st.text(max_size=3).filter(lambda k: k not in value))
        bad, text = draw(bad_item(*item_rule))
        return {**value, key: bad}, text(key)
    # a list, or an algebra: "powerset" or a list
    if draw(st.booleans()) or not item_rule or not isinstance(value, list):
        bad = draw(ANY.filter(lambda v: not isinstance(v, list) and v != "powerset"))
        return bad, message
    bad, text = draw(bad_item(*item_rule))
    i = draw(st.integers(0, len(value)))
    return value[:i] + [bad] + value[i:], text()


@st.composite
def broken(draw):
    """(argv, position of the document, its bytes, the expected message):
    a valid golden document with exactly one rule of its grammar broken."""
    argv, slot, name = draw(st.sampled_from(VALID_SLOTS))
    doc = json.loads((ROOT / argv[slot]).read_text(encoding="utf-8"))
    grammar, kinds = GRAMMAR[name], GRAMMAR[name]["kinds"]
    kind, _ = _walk(doc, name)
    rules = kinds[kind]
    shaped = [k for k, r in rules.items() if r]
    rule = draw(st.sampled_from(shaped if draw(st.integers(0, 2)) else ["object", "kind", "key"]))
    if rule == "object":
        doc = draw(ANY.filter(lambda v: not isinstance(v, dict)))
        message = grammar["object"]
    elif rule == "kind" and "both" in grammar:  # a measure: drop its kind's key, or add another
        other = draw(st.sampled_from([k for k in kinds if k != kind] + [None]))
        if other is None:
            doc, message = {k: v for k, v in doc.items() if k != kind}, grammar["kind"]
        else:
            doc, message = {**doc, other: doc[kind]}, grammar["both"]
    elif rule == "kind":
        value = draw(ANY.filter(lambda v: all(v != k for k in kinds)))
        doc, message = {**doc, "kind": value}, grammar["kind"].format(value)
    elif rule == "key":
        # a key of another kind or document, or none of the grammar's keys
        key = draw((st.sampled_from(ALL_KEYS) | st.text(max_size=3)).filter(
            lambda k: k not in rules and not ("both" in grammar and k in kinds)))
        doc, message = {**doc, key: draw(ANY)}, grammar["key"].format(key, kind)
    else:
        value, message = draw(broken_value(doc.get(rule), *rules[rule]))
        doc = {**doc, rule: value}
    return argv, slot, json.dumps(doc).encode(), message


LATTICE = ["validate", "--lattice", ""]
FUNCTION = ["canonicalize", "--lattice", B4, "--function", ""]


def test_every_valid_slot_is_inside_the_grammar():
    assert {name for _, _, name in VALID_SLOTS} == set(GRAMMAR)
    for argv, slot, name in VALID_SLOTS:
        _walk(json.loads((ROOT / argv[slot]).read_text(encoding="utf-8")), name)


@settings(max_examples=80, deadline=2000, derandomize=True)
@given(case=broken())
@example(case=(LATTICE, 2, b'{"kind": ["powerset"], "atoms": ["x"]}',
               "unknown lattice kind ['powerset'] (expected \"powerset\" or \"poset\")"))
@example(case=(LATTICE, 2, b'{"kind": null}', "unknown lattice kind None (expected \"powerset\" "
               "or \"poset\")"))
@example(case=(FUNCTION, 4, b'{"kind": "constant", "value": "2", "terms": [["3", "x"]]}',
               "unknown key 'terms' in a constant function document"))
@example(case=(FUNCTION, 4, b'{"kind": "simple", "terms": [[2, "x"]]}',
               "bad rational in term: 2"))
@example(case=(LATTICE, 2, b'{"kind": "poset", "elements": ["0", "a,b", "1"], "leq": []}',
               "element name 'a,b' holds \",\" or \"|\", which separate blocks in a "
               "sublocale ref"))
@example(case=(["validate", "--space", ""], 2, b'{"points": [], "lambda": {}, "kind": null}',
               "unknown key 'kind' in a space document"))
def test_one_broken_rule_exits_2_with_its_message(document, case):
    argv, slot, data, message = case
    document.write_bytes(data)
    assert run_streams(argv[:slot] + [str(document)] + argv[slot + 1:]) == \
        (2, "", f"error: {message}\n")
