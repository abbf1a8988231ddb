"""JSON document ingestion for the CLI.

All rationals are string-encoded ("p/q" or integers; "inf"/"-inf" where an
extended value is allowed).  Function documents come in three kinds:

* {"kind": "constant", "value": "<rational|inf|-inf>"}
* {"kind": "simple", "terms": [["<rational>", "<ref>"], ...]}
* {"kind": "cut", "breakpoints": [...], "upper": [...], "lower": [...]}

Over the plain lattice a term/ladder ref is an element name.  Over the
congruence frame a simple term names a sublocale ("L", "void", "open:a",
"closed:a" or "blocks:..."), contributing r * chi_S = r * chi(theta_S^c),
while cut ladder values name the congruences themselves via the same refs.

A space document's lambda maps each point of a powerset, or each atom of a
listed algebra by its name, to a value; the loader reads the document and
parses every value, and ``bridge`` checks the space in one call.

Each loader imports its own layer (functions: simple, and cutfunction for
ladders and infinite constants; measures: measure; spaces and classical
functions: bridge), so loading a lattice loads none of them.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, List, Optional, Tuple

from .errors import MalformedDocument, NotFinite
from .lattice import FiniteLattice, build_lattice

if TYPE_CHECKING:
    from fractions import Fraction

    from .bridge import ClassicalSimpleFunction, FiniteMeasurableSpace
    from .congruence import SublocaleView
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


def load_lattice(doc) -> FiniteLattice:
    return build_lattice(doc)


def _rational(value, what: str) -> Fraction:
    from .rationals import parse_rational

    try:
        return parse_rational(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedDocument(f"bad rational in {what}: {value!r}") from exc


def _extended(value, what: str):
    from .rationals import parse_extended

    try:
        return parse_extended(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedDocument(f"bad extended rational in {what}: {value!r}") from exc


class LoadedFunction:
    """A function document resolved against a carrier, exposing whichever
    of the simple/cut views the caller needs.  The cut ladders of a simple
    function are built on first use (``to_cut_function`` cannot fail on a
    canonical function), so a caller that needs only the simple view never
    loads ``cutfunction``."""

    __slots__ = ("_cut", "simple")

    def __init__(self, cut: Optional[CutFunction], simple: Optional[SimpleFunction]):
        self._cut = cut
        self.simple = simple

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
                  view: Optional[SublocaleView] = None) -> LoadedFunction:
    """Resolve a function document over the lattice itself, or over the
    congruence frame when a sublocale view is supplied."""
    if not isinstance(doc, dict):
        raise MalformedDocument("function document must be a JSON object")
    from .rationals import is_finite
    from .simple import canonicalize, constant_simple, cut_to_simple

    carrier = view.frame.as_lattice() if view is not None else lattice
    kind = doc.get("kind")
    if kind == "constant":
        value = _extended(doc.get("value"), "constant")
        if is_finite(value):
            return LoadedFunction(None, constant_simple(value, carrier))
        from .cutfunction import constant

        return LoadedFunction(constant(value, carrier), None)
    if kind == "simple":
        raw = doc.get("terms")
        if not isinstance(raw, list):
            raise MalformedDocument('"terms" must be a list of [rational, ref] pairs')
        terms: List[Tuple[Fraction, str]] = []
        for item in raw:
            if not (isinstance(item, (list, tuple)) and len(item) == 2):
                raise MalformedDocument(f"bad term: {item!r}")
            r = _rational(item[0], "term")
            element = _resolve_element(item[1], carrier, view)
            # over C(L) the term names S, and chi_S = chi(theta_S^c); C(L) is Boolean
            terms.append((r, element if view is None else carrier.complement(element)))
        return LoadedFunction(None, canonicalize(carrier, terms))
    if kind == "cut":
        from .cutfunction import CutFunction

        bps = doc.get("breakpoints")
        upper = doc.get("upper")
        lower = doc.get("lower")
        if not all(isinstance(x, list) for x in (bps, upper, lower)):
            raise MalformedDocument('"breakpoints", "upper" and "lower" must be lists')
        breakpoints = [_rational(b, "breakpoints") for b in bps]
        up = [_resolve_element(e, carrier, view) for e in upper]
        lo = [_resolve_element(e, carrier, view) for e in lower]
        cut = CutFunction(carrier, breakpoints, up, lo)
        simple = cut_to_simple(cut) if cut.is_finite() else None
        return LoadedFunction(cut, simple)
    raise MalformedDocument(
        f'unknown function kind {kind!r} (expected "constant", "simple" or "cut")')


def _resolve_element(ref, carrier: FiniteLattice, view: Optional[SublocaleView]) -> str:
    """An element of the carrier, named directly or, over the congruence
    frame, by a sublocale reference to the congruence."""
    if view is None:
        if not isinstance(ref, str):
            raise MalformedDocument(f"bad element reference: {ref!r}")
        carrier.index(ref)
        return ref
    return view.resolve_ref(ref).partition_name()


def load_measure(doc, view: SublocaleView) -> Measure:
    from .measure import measure_from_weights, validate_measure

    if not isinstance(doc, dict):
        raise MalformedDocument("measure document must be a JSON object")
    if "on_open_weights" in doc and "values" in doc:
        raise MalformedDocument('measure document takes "values" or "on_open_weights", not both')
    if "on_open_weights" in doc:
        raw = doc["on_open_weights"]
        if not isinstance(raw, dict):
            raise MalformedDocument('"on_open_weights" must map atoms to values')
        weights = {a: _extended(v, f"weight of {a!r}") for a, v in raw.items()}
        return measure_from_weights(view, weights)
    if "values" in doc:
        raw = doc["values"]
        if not isinstance(raw, dict):
            raise MalformedDocument('"values" must map sublocale refs to values')
        values = {}
        for ref, v in raw.items():
            sub = view.resolve_ref(ref)
            if sub in values:
                raise MalformedDocument(f"two values resolve to the same sublocale ({ref!r})")
            values[sub] = _extended(v, f"value of {ref!r}")
        return validate_measure(view, values)
    raise MalformedDocument('measure document needs "values" or "on_open_weights"')


def load_space(doc) -> FiniteMeasurableSpace:
    """Points, an algebra ("powerset", the default, or a list of subsets
    of strings, to which the empty and the whole set are added) and
    lambda.  Every lambda value is parsed before the space is checked."""
    from .bridge import FiniteMeasurableSpace

    if not isinstance(doc, dict):
        raise MalformedDocument("space document must be a JSON object")
    points = doc.get("points")
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise MalformedDocument('"points" must be a list of strings')
    algebra = doc.get("algebra", "powerset")
    raw_lam = doc.get("lambda")
    if not isinstance(raw_lam, dict):
        raise MalformedDocument('"lambda" must map atoms to values')
    if algebra != "powerset":
        if not isinstance(algebra, list):
            raise MalformedDocument('"algebra" must be "powerset" or a list of subsets')
        for s in algebra:
            if not (isinstance(s, list) and all(isinstance(p, str) for p in s)):
                raise MalformedDocument(f"bad subset in algebra: {s!r}")
    weights = {k: _extended(v, f"lambda[{k!r}]") for k, v in raw_lam.items()}
    if algebra == "powerset":
        return FiniteMeasurableSpace.powerset(points, weights)
    sets = {frozenset(s) for s in algebra} | {frozenset(), frozenset(points)}
    return FiniteMeasurableSpace(points, sets, weights)


def load_classical_function(doc, space: FiniteMeasurableSpace) -> ClassicalSimpleFunction:
    from .bridge import ClassicalSimpleFunction

    if not isinstance(doc, dict) or doc.get("kind") != "classical":
        raise MalformedDocument('a classical function document has kind "classical"')
    raw = doc.get("values")
    if not isinstance(raw, dict):
        raise MalformedDocument('"values" must map points to rationals')
    values = {p: _rational(v, f"value at {p!r}") for p, v in raw.items()}
    return ClassicalSimpleFunction(space, values)
