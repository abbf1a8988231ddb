"""Pieces shared by the workloads: the op record, output checks, and the
Birkhoff map between point sets and the library's element names."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, FrozenSet, Optional

from locint import POS_INF, build_lattice

from .gen import INF, LatticeSpec, blocks, subsets


ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_build" / "perfbench"  # scratch files and span dumps


def child_env() -> dict:
    """Environment for a cold ``python`` that imports locint from this checkout."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Op:
    """One generated operation: its inputs (``data``) and the independently
    computed expected outputs (``expect``)."""

    id: int
    kind: str
    data: dict
    expect: object = None
    known_defect: Optional[str] = None  # name of a documented defect this op exercises


class Mismatch(Exception):
    """An output differs from its expected value."""


def require(cond: bool, what: str, got=None, want=None) -> None:
    if not cond:
        raise Mismatch(f"{what}: got {got!r}, expected {want!r}")


def same(what: str, got, want) -> None:
    require(got == want, what, got, want)


def ext(v):
    """Expected-value sentinel to library scalar."""
    return POS_INF if v == INF else v


@dataclass
class Carrier:
    """A Boolean carrier as the run sees it: the library lattice plus the
    bijection between sets of points and element names."""

    name: str
    lat: object
    points: tuple
    name_of: Dict[FrozenSet[str], str]
    set_of: Dict[str, FrozenSet[str]] = field(default_factory=dict)
    view: object = None      # S(L), for congruence-frame carriers
    subs: dict = None        # Q -> the sublocale S_Q, for congruence-frame carriers
    measures: list = None    # [(weights, Measure)], for congruence-frame carriers

    def __post_init__(self):
        self.set_of = {n: s for s, n in self.name_of.items()}

    def terms(self, g):
        return tuple((r, self.set_of[a]) for r, a in g.terms)

    def ladders(self, f):
        return (tuple(f.breakpoints), tuple(self.set_of[u] for u in f.upper),
                tuple(self.set_of[v] for v in f.lower))

    def named(self, terms):
        return [(r, self.name_of[a]) for r, a in terms]


def jsets(spec: LatticeSpec, lat, tr) -> Dict[str, FrozenSet[str]]:
    """Element name -> join-irreducibles below it.  Powerset documents leave
    the names to the library, so they are read off with order queries
    against the atoms."""
    if spec.jset is not None:
        return dict(spec.jset)
    with tr.span("lattice.query"):
        return {e: frozenset(a for a in spec.points if lat.leq(a, e)) for e in lat.elements}


def build(spec: LatticeSpec, tr):
    with tr.span("lattice.build"):
        return build_lattice(spec.doc)


def frame_carrier(spec: LatticeSpec, lat, tr) -> Carrier:
    """C(L) as a carrier: point j is the atom collapsing only j, so the
    element collapsing the set D is the congruence with keep-set P - D.
    Every congruence is resolved from its Birkhoff blocks, which also checks
    |C(L)| = 2^|J(L)|."""
    with tr.span("congruence.frame"):
        frame = lat.congruence_frame()
    with tr.span("congruence.facade"):
        facade = frame.as_lattice()
    with tr.span("congruence.view"):
        view = frame.view()
    js = jsets(spec, lat, tr)
    pts = frozenset(spec.points)
    with tr.span("congruence.resolve"):
        subs = {q: view.resolve_ref({"blocks": blocks(js, q)}) for q in subsets(spec.points)}
        name_of = {pts - q: theta.partition_name() for q, theta in subs.items()}
    tr.count("congruence.frame_size", len(facade.elements))
    return Carrier("C(" + spec.name + ")", facade, spec.points, name_of, view=view, subs=subs)


def pairs_checked(n_points: int) -> int:
    """Pairs `validate_measure` sweeps on S(L) = 2^J, computed from |C|:
    all unordered pairs for M3 plus the strict order pairs for M2."""
    c = 2 ** n_points
    return c * (c - 1) // 2 + 3 ** n_points - c


def check_frame(spec: LatticeSpec, car: Carrier) -> None:
    """|C(L)| = 2^|J(L)| with J(L) from the generating poset, and the 2^|J|
    Birkhoff congruences are exactly the elements of the facade."""
    same(f"|C(L)| of {spec.name}", len(car.lat.elements), 2 ** len(spec.points))
    same(f"congruences of {spec.name}", set(car.name_of.values()), set(car.lat.elements))


def centre_carrier(spec: LatticeSpec, lat, tr) -> Carrier:
    """L restricted to its complemented elements: a point per connected
    component of J(L)."""
    same(f"|L| of {spec.name}", len(lat.elements), spec.size)
    return Carrier(spec.name, lat, spec.centre_points(), spec.centre_names(jsets(spec, lat, tr)))
