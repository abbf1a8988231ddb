"""JSON document ingestion for the CLI: one grammar, one walker, the loaders.

``GRAMMAR`` is the whole document grammar.  For each document (lattice,
function, measure, space, classical function) it holds the message for a
value that is not a JSON object, the message for an unknown kind, the
message for a key outside the kind, and, per kind, the allowed keys with
the shape of each value and its messages.  ``_walk`` reads a document
against it before any semantic step, in this order: a JSON object, a
known kind, no key outside the kind, then each value through its shape,
in the table's key order.  It returns the parsed values, so the loaders
below check no shape of their own.

Rationals are strings ("p/q" or integers; "inf"/"-inf" where an extended
value is allowed); a JSON number is rejected like any other malformed
rational.  Function documents come in three kinds:

* {"kind": "constant", "value": "<rational|inf|-inf>"}
* {"kind": "simple", "terms": [["<rational>", "<ref>"], ...]}
* {"kind": "cut", "breakpoints": [...], "upper": [...], "lower": [...]}

Over the plain lattice a term/ladder ref is an element name.  Over the
congruence frame a simple term names a sublocale ("L", "void", "open:a",
"closed:a", "blocks:..." or {"blocks": [...]}, all read by
``CongruenceFrame.resolve_ref``), contributing r * chi_S = r * chi(theta_S^c),
while cut ladder values name the congruences themselves via the same refs.

A measure's kind is the one of its two keys it holds.  A space document's
lambda maps each point of a powerset, or each atom of a listed algebra by
its name, to a value; ``bridge`` checks the space in one call.

Each loader imports its own layer (functions: simple, and cutfunction for
ladders and infinite constants; measures: measure; spaces and classical
functions: bridge), so loading a lattice loads none of them.
"""

from __future__ import annotations

import json
from contextlib import suppress
from typing import TYPE_CHECKING, Optional

from .errors import MalformedDocument, NotFinite
from .lattice import FiniteLattice, powerset_lattice

if TYPE_CHECKING:
    from .bridge import ClassicalSimpleFunction, FiniteMeasurableSpace
    from .congruence import CongruenceFrame
    from .cutfunction import CutFunction
    from .measure import Measure
    from .simple import SimpleFunction


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise MalformedDocument(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise MalformedDocument(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MalformedDocument(f"{path} nests too deeply to read") from exc


# -- shapes: each takes a value and its rule's messages and returns the value
# parsed, or raises a message formatted with the value (a map's key first) ----

def _rational(value, message: str, *key, extended=False):
    from .rationals import parse_extended, parse_rational

    if isinstance(value, str):
        with suppress(ValueError):
            return (parse_extended if extended else parse_rational)(value)
    raise MalformedDocument(message.format(*key, value))


def _extended(value, message: str, *key):
    return _rational(value, message, *key, extended=True)


def _strings(value, message: str, n=None) -> list:
    """A list of strings, of `n` items if given."""
    if isinstance(value, list) and n in (None, len(value)) and all(isinstance(e, str) for e in value):
        return value
    raise MalformedDocument(message.format(value))


def _names(value, message: str, bad_name: str, braced_name: str) -> list:
    """A list of strings, none holding "," or "|", which a printed blocks
    ref joins a block's members and the blocks with, nor "{" or "}", which
    enclose a powerset's subset names, whose commas a ref does not split."""
    for name in _strings(value, message):
        if "," in name or "|" in name:
            raise MalformedDocument(bad_name.format(name))
        if "{" in name or "}" in name:
            raise MalformedDocument(braced_name.format(name))
    return value


def _term(value, message: str, bad_rational: str) -> tuple:
    """A [rational, ref] pair; the carrier resolves the ref."""
    if isinstance(value, list) and len(value) == 2:
        return _rational(value[0], bad_rational), value[1]
    raise MalformedDocument(message.format(value))


def _list(value, message: str, item=None, *item_rule) -> list:
    if not isinstance(value, list):
        raise MalformedDocument(message)
    return value if item is None else [item(v, *item_rule) for v in value]


def _map(value, message: str, item, item_message: str) -> dict:
    if not isinstance(value, dict):
        raise MalformedDocument(message)
    return {k: item(v, item_message, k) for k, v in value.items()}


def _algebra(value, *rule):
    """"powerset", or a list of subsets."""
    return value if value == "powerset" else _list(value, *rule)


#: document -> its messages ("object": not a JSON object; "kind": an unknown
#: kind, given it; "key": a key outside the kind, given it and the kind;
#: "both": a measure holding the keys of both its kinds), the values of left
#: out optional keys ("defaults"), and per kind its keys in the order they
#: are checked, each with its shape and the rest of the shape's arguments.
#: "kind" has no shape: its value selected the kind.  A space has one kind,
#: None, so a "kind" key is outside it.
_LADDER = (_list, '"breakpoints", "upper" and "lower" must be lists')
GRAMMAR = {
    "lattice": {
        "object": "lattice document must be a JSON object",
        "kind": 'unknown lattice kind {!r} (expected "powerset" or "poset")',
        "key": "unknown key {!r} in a {} lattice document", "kinds": {
            "powerset": {"kind": (), "atoms": (
                _names, '"atoms" must be a list of strings',
                'atom name {!r} holds "," or "|", which separate blocks in a sublocale ref',
                'atom name {!r} holds "{{" or "}}", which enclose subset names in a sublocale ref')},
            "poset": {"kind": (), "elements": (
                _names, '"elements" must be a list of strings',
                'element name {!r} holds "," or "|", which separate blocks in a sublocale ref',
                'element name {!r} holds "{{" or "}}", which enclose subset names in a sublocale ref'),
                      "leq": (_list, '"leq" must be a list of [a, b] pairs',
                              _strings, "bad order pair: {!r}", 2)}}},
    "function": {
        "object": "function document must be a JSON object",
        "kind": 'unknown function kind {!r} (expected "constant", "simple" or "cut")',
        "key": "unknown key {!r} in a {} function document", "kinds": {
            "constant": {"kind": (),
                         "value": (_extended, "bad extended rational in constant: {!r}")},
            "simple": {"kind": (),
                       "terms": (_list, '"terms" must be a list of [rational, ref] pairs',
                                 _term, "bad term: {!r}", "bad rational in term: {!r}")},
            "cut": {"kind": (), "upper": _LADDER, "lower": _LADDER,
                    "breakpoints": _LADDER + (_rational, "bad rational in breakpoints: {!r}")}}},
    "measure": {
        "object": "measure document must be a JSON object",
        "both": 'measure document takes "values" or "on_open_weights", not both',
        "kind": 'measure document needs "values" or "on_open_weights"',
        "key": "unknown key {!r} in a measure document", "kinds": {
            "values": {"values": (_map, '"values" must map sublocale refs to values',
                                  _extended, "bad extended rational in value of {!r}: {!r}")},
            "on_open_weights": {"on_open_weights": (
                _map, '"on_open_weights" must map atoms to values',
                _extended, "bad extended rational in weight of {!r}: {!r}")}}},
    "space": {
        "object": "space document must be a JSON object",
        "kind": "unknown key 'kind' in a space document",
        "key": "unknown key {!r} in a space document", "defaults": {"algebra": "powerset"},
        "kinds": {None: {
            "points": (_strings, '"points" must be a list of strings'),
            "algebra": (_algebra, '"algebra" must be "powerset" or a list of subsets',
                        _strings, "bad subset in algebra: {!r}"),
            "lambda": (_map, '"lambda" must map atoms to values',
                       _extended, "bad extended rational in lambda[{!r}]: {!r}")}}},
    "classical": {
        "object": 'a classical function document has kind "classical"',
        "kind": 'a classical function document has kind "classical"',
        "key": "unknown key {!r} in a classical function document", "kinds": {
            "classical": {"kind": (), "values": (
                _map, '"values" must map points to rationals',
                _rational, "bad rational in value at {!r}: {!r}")}}},
}


def _walk(doc, document: str):
    """The kind of `doc`, a `document` of ``GRAMMAR``, and its values
    parsed by their shapes; the first rule it breaks raises its message."""
    grammar, kinds = GRAMMAR[document], GRAMMAR[document]["kinds"]
    if not isinstance(doc, dict):
        raise MalformedDocument(grammar["object"])
    # a measure's kind is the one of its kinds' keys it holds
    held = [k for k in kinds if k in doc] if "both" in grammar else [doc.get("kind")]
    if len(held) > 1:
        raise MalformedDocument(grammar["both"])
    kind = held[0] if held else None
    rules = next((r for k, r in kinds.items() if k == kind), None)  # a kind may be unhashable
    if rules is None:
        raise MalformedDocument(grammar["kind"].format(kind))
    for key in doc:
        if key not in rules:
            raise MalformedDocument(grammar["key"].format(key, kind))
    doc = {**grammar.get("defaults", {}), **doc}
    return kind, {key: rule[0](doc.get(key), *rule[1:]) for key, rule in rules.items() if rule}


def build_lattice(doc) -> FiniteLattice:
    """Build a lattice from a document: {"kind": "powerset", "atoms": [...]}
    or {"kind": "poset", "elements": [...], "leq": [[a, b], ...]}."""
    kind, values = _walk(doc, "lattice")
    if kind == "powerset":
        return powerset_lattice(values["atoms"])
    return FiniteLattice(values["elements"], values["leq"])


load_lattice = build_lattice


class LoadedFunction:
    """A function document resolved against a carrier, exposing whichever
    of the simple/cut views the caller needs.  The cut ladders of a simple
    function are built on first use (``to_cut_function`` cannot fail on a
    canonical function), so a caller that needs only the simple view never
    loads ``cutfunction``."""

    __slots__ = ("_cut", "simple")

    def __init__(self, cut: Optional[CutFunction], simple: Optional[SimpleFunction]):
        self._cut, self.simple = cut, simple

    @property
    def cut(self) -> CutFunction:
        if self._cut is None:
            from .simple import to_cut_function

            self._cut = to_cut_function(self.simple)
        return self._cut

    def as_simple(self) -> SimpleFunction:
        if self.simple is None:
            raise NotFinite("this function is not finite, so it is not simple")
        return self.simple


def load_function(doc, lattice: FiniteLattice,
                  frame: Optional[CongruenceFrame] = None) -> LoadedFunction:
    """Resolve a function document over the lattice itself, or over the
    congruence frame when one is supplied: there a ref names a sublocale,
    and an element of C(L) is the congruence it names."""
    kind, values = _walk(doc, "function")
    from .rationals import is_finite
    from .simple import canonicalize, constant_simple, cut_to_simple

    carrier = frame.as_lattice() if frame is not None else lattice

    def element(ref) -> str:
        return (carrier.elements[carrier.index(ref)] if frame is None
                else frame.element_of(frame.resolve_ref(ref)))

    if kind == "constant":
        if is_finite(values["value"]):
            return LoadedFunction(None, constant_simple(values["value"], carrier))
        from .cutfunction import constant

        return LoadedFunction(constant(values["value"], carrier), None)
    if kind == "simple":
        # over C(L) a term names S, and chi_S = chi(theta_S^c); C(L) is Boolean
        named = element if frame is None else lambda ref: carrier.complement(element(ref))
        return LoadedFunction(None, canonicalize(carrier, [(r, named(ref))
                                                           for r, ref in values["terms"]]))
    from .cutfunction import CutFunction

    cut = CutFunction(carrier, values["breakpoints"], [element(e) for e in values["upper"]],
                      [element(e) for e in values["lower"]])
    return LoadedFunction(cut, cut_to_simple(cut) if cut.is_finite() else None)


def load_measure(doc, frame: CongruenceFrame) -> Measure:
    from .measure import measure_from_weights, validate_measure

    kind, parsed = _walk(doc, "measure")
    if kind == "on_open_weights":
        return measure_from_weights(frame, parsed[kind])
    values = {}
    for ref, v in parsed[kind].items():
        sub = frame.resolve_ref(ref)
        if sub in values:
            raise MalformedDocument(f"two values resolve to the same sublocale ({ref!r})")
        values[sub] = v
    return validate_measure(frame, values)


def load_space(doc) -> FiniteMeasurableSpace:
    """Points, an algebra ("powerset", the default, or a list of subsets
    of strings, to which the empty and the whole set are added) and
    lambda.  Every lambda value is parsed before the space is checked."""
    from .bridge import FiniteMeasurableSpace

    _, values = _walk(doc, "space")
    points, algebra, weights = values["points"], values["algebra"], values["lambda"]
    if algebra == "powerset":
        return FiniteMeasurableSpace.powerset(points, weights)
    sets = {frozenset(s) for s in algebra} | {frozenset(), frozenset(points)}
    return FiniteMeasurableSpace(points, sets, weights)


def load_classical_function(doc, space: FiniteMeasurableSpace) -> ClassicalSimpleFunction:
    from .bridge import ClassicalSimpleFunction

    return ClassicalSimpleFunction(space, _walk(doc, "classical")[1]["values"])
