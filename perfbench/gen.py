"""Seeded input generators shared by the workloads.

Everything here is plain Python over finite posets and point sets; no
``locint`` import happens in this module, so the program under test receives
only the generated inputs.

Distributive lattices are built the Birkhoff way: a finite poset P gives the
lattice of its downsets, whose join-irreducibles are the principal downsets,
so J(L) = P is known without asking the library.  Each generated lattice is
a ``LatticeSpec``: the JSON document plus, for every element name, its set
of join-irreducibles (``jset``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from random import Random
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class LatticeSpec:
    """A lattice document with its Birkhoff data.

    ``points`` is J(L) in a fixed order.  ``jset`` maps each element name to
    its join-irreducibles; it is None for ``powerset`` documents, whose
    element names the library chooses (the run resolves them by order
    queries against the atom names, which are the points)."""

    name: str
    doc: dict
    points: Tuple[str, ...]
    below: Tuple[Tuple[str, str], ...]  # strict order on the points (a < b)
    jset: Optional[Tuple[Tuple[str, FrozenSet[str]], ...]]

    @property
    def size(self) -> int:
        return 2 ** len(self.points) if self.jset is None else len(self.jset)

    def components(self) -> Tuple[FrozenSet[str], ...]:
        """Connected components of P; their unions are exactly the
        complemented elements of L, so they are the points of L's centre."""
        parent = {p: p for p in self.points}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for a, b in self.below:
            parent[find(a)] = find(b)
        groups: Dict[str, set] = {}
        for p in self.points:
            groups.setdefault(find(p), set()).add(p)
        return tuple(sorted((frozenset(g) for g in groups.values()),
                            key=lambda g: min(self.points.index(p) for p in g)))

    def centre_points(self) -> Tuple[str, ...]:
        """One point per component, named by its members."""
        return tuple("+".join(sorted(c)) for c in self.components())

    def centre_names(self, jset: Dict[str, FrozenSet[str]]) -> Dict[FrozenSet[str], str]:
        """Set of centre points -> the complemented element that is their
        union, given each element's join-irreducibles."""
        comps = dict(zip(self.centre_points(), self.components()))
        by_set = {s: e for e, s in jset.items()}
        return {chosen: by_set[frozenset().union(*(comps[c] for c in chosen))]
                for chosen in subsets(comps)}


def _closure(points: Sequence[str], pairs) -> Tuple[Tuple[str, str], ...]:
    below = {p: set() for p in points}
    for a, b in pairs:
        below[b].add(a)
    changed = True
    while changed:
        changed = False
        for b in points:
            extra = set().union(*(below[a] for a in below[b])) - below[b]
            if extra:
                below[b] |= extra
                changed = True
    return tuple((a, b) for b in points for a in points if a in below[b])


def downsets(points: Sequence[str], below) -> List[FrozenSet[str]]:
    lower = {p: {a for a, b in below if b == p} for p in points}
    out = []
    for k in range(len(points) + 1):
        for combo in combinations(points, k):
            s = set(combo)
            if all(lower[p] <= s for p in s):
                out.append(frozenset(combo))
    return out


def downset_spec(name: str, points: Sequence[str], pairs, rng: Optional[Random] = None,
                 label=None) -> LatticeSpec:
    """The downset lattice of the poset generated by ``pairs`` as a
    ``poset`` document; ``label`` names an element from its downset."""
    points = tuple(points)
    below = _closure(points, pairs)
    sets = downsets(points, below)
    if label is None:
        def label(s):
            return "d" + "".join(sorted(s, key=points.index)) if s else "e"
    names = [label(s) for s in sets]
    order = list(range(len(sets)))
    if rng is not None:
        rng.shuffle(order)
    elements = [names[i] for i in order]
    covers = [[names[i], names[j]] for i, a in enumerate(sets) for j, b in enumerate(sets)
              if a < b and len(b) == len(a) + 1]
    doc = {"kind": "poset", "elements": elements, "leq": covers}
    return LatticeSpec(name, doc, points, below, tuple(zip(names, sets)))


def powerset_spec(name: str, atoms: Sequence[str]) -> LatticeSpec:
    return LatticeSpec(name, {"kind": "powerset", "atoms": list(atoms)}, tuple(atoms), (), None)


def chain_spec(n: int) -> LatticeSpec:
    """The n-element chain: J is a chain of n - 1 points."""
    pts = [f"c{i}" for i in range(1, n)]
    names = {frozenset(pts[:k]): f"c{k}" for k in range(n)}
    return downset_spec(f"chain{n}", pts, list(zip(pts, pts[1:])), label=names.get)


def divisor_spec(n: int) -> LatticeSpec:
    """Divisors of n under divisibility: J is the set of prime powers."""
    pps = []
    m, p = n, 2
    while m > 1:
        k = 0
        while m % p == 0:
            m //= p
            k += 1
            pps.append(p ** k)
        p += 1
    pts = [str(q) for q in pps]
    pairs = [(str(a), str(b)) for a in pps for b in pps if a != b and b % a == 0]

    return downset_spec(f"div{n}", pts, pairs,
                        label=lambda s: str(math.lcm(*(int(q) for q in s))))


def random_poset_spec(rng: Random, n: int, name: str) -> LatticeSpec:
    """Downset lattice of a random poset on n points: each pair i < j of a
    random linear extension is related with probability ``density``."""
    pts = [str(i) for i in range(n)]
    density = rng.choice((0.0, 0.2, 0.4, 0.6))
    pairs = [(pts[i], pts[j]) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    return downset_spec(name, pts, pairs, rng=rng)


def subsets(points) -> List[FrozenSet[str]]:
    out = [frozenset()]
    for p in points:
        out += [s | {p} for s in out]
    return out


def blocks(jset: Dict[str, FrozenSet[str]], keep: FrozenSet[str]) -> List[List[str]]:
    """Blocks of the congruence with keep-set Q: x ~ y iff J(x) & Q = J(y) & Q."""
    out: Dict[FrozenSet[str], List[str]] = {}
    for e, s in jset.items():
        out.setdefault(s & keep, []).append(e)
    return list(out.values())


# -- scalars and functions on points ------------------------------------------

INF = float("inf")  # sentinel for +inf in expected values; never fed to the program


def rational(rng: Random, lo: int = -9, hi: int = 9) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3, 4, 6)))


def weight(rng: Random, inf_probability: float = 0.0):
    if inf_probability and rng.random() < inf_probability:
        return INF
    return Fraction(rng.randint(0, 12), rng.choice((1, 2, 3)))


def pointwise(rng: Random, points: Sequence[str], nonneg: bool = False,
              levels: int = 3) -> Dict[str, Fraction]:
    """A function on the points with few distinct values, so that canonical
    forms merge cells."""
    pool = [rational(rng, 0 if nonneg else -9, 9) for _ in range(rng.randint(1, levels))]
    return {p: rng.choice(pool) for p in points}


def subset(rng: Random, points: Sequence[str]) -> FrozenSet[str]:
    return frozenset(p for p in points if rng.random() < 0.5)


def fmt(v) -> str:
    """Extended rational as the library prints it."""
    if v == INF:
        return "inf"
    if v == -INF:
        return "-inf"
    return str(v)
