"""Reference lattices and seeded random generators for the verification suite.

The corpus holds the three-element chain, the Boolean algebras on 2..4
atoms, and two non-Boolean distributive lattices (the divisor lattices of
12 and of 60, with 6 and 12 elements).  ``corpus()`` pairs each with its
congruence frame C(L) and C(L)'s carrier, built once per process, and is
where every ``verify`` criterion takes its lattices from.  Generators draw
from ``random.Random`` so a fixed seed reproduces every case exactly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from random import Random
from types import MappingProxyType
from typing import List, Mapping, NamedTuple, Sequence, Tuple

from .congruence import CongruenceFrame
from .lattice import FiniteLattice, chain_lattice, powerset_lattice
from .measure import Measure
from .rationals import POS_INF, ExtValue
from .simple import SimpleFunction, canonicalize


def divisor_lattice(n: int) -> FiniteLattice:
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    names = [str(d) for d in divisors]
    pairs = [(str(a), str(b)) for a in divisors for b in divisors if b % a == 0]
    return FiniteLattice(names, pairs)


@cache
def corpus_lattices() -> Mapping[str, FiniteLattice]:
    """The reference lattices, built once and shared read-only."""
    return MappingProxyType({
        "c3": chain_lattice(["0", "m", "1"]),
        "b4": powerset_lattice(["x", "y"]),
        "b8": powerset_lattice(["x", "y", "z"]),
        "b16": powerset_lattice(["w", "x", "y", "z"]),
        "div12": divisor_lattice(12),
        "div60": divisor_lattice(60),
    })


class CorpusEntry(NamedTuple):
    """A reference lattice L, its congruence frame C(L) and C(L)'s carrier."""

    name: str
    lattice: FiniteLattice
    frame: CongruenceFrame
    carrier: FiniteLattice


@cache
def corpus() -> Tuple[CorpusEntry, ...]:
    """The reference lattices in ``corpus_lattices()`` order, each with C(L)
    and its carrier, built once and shared read-only."""
    entries = []
    for name, lattice in corpus_lattices().items():
        frame = CongruenceFrame(lattice)
        entries.append(CorpusEntry(name, lattice, frame, frame.as_lattice()))
    return tuple(entries)


def boolean_atoms(lattice: FiniteLattice) -> Tuple[str, ...]:
    """Atoms of the Boolean sublattice of complemented elements; they are
    pairwise disjoint and join to the top."""
    return tuple(lattice._at[m] for m in lattice._centre_atoms())


def random_rational(rng: Random, lo: int = -12, hi: int = 12,
                    denominators: Sequence[int] = (1, 2, 3, 4, 6)) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.choice(denominators))


def random_weight(rng: Random, inf_probability: float = 0.0,
                  hi: int = 9) -> ExtValue:
    if inf_probability and rng.random() < inf_probability:
        return POS_INF
    return Fraction(rng.randint(0, hi * 2), rng.choice((1, 2, 3, 4)))


def random_cover(rng: Random, lattice: FiniteLattice, max_parts: int = 3) -> List[str]:
    """A pairwise-disjoint complemented cover of the top: the atoms of the
    complemented sublattice, randomly grouped and joined."""
    atoms = list(boolean_atoms(lattice))
    rng.shuffle(atoms)
    parts = rng.randint(1, min(max_parts, len(atoms)))
    groups: List[List[str]] = [[] for _ in range(parts)]
    for i, a in enumerate(atoms):
        groups[i % parts].append(a)
    return [lattice.join_all(g) for g in groups]


def random_simple(rng: Random, lattice: FiniteLattice, *,
                  nonneg: bool = False, max_parts: int = 3,
                  coeff_lo: int = -12, coeff_hi: int = 12,
                  denominators: Sequence[int] = (1, 2, 3, 4, 6)) -> SimpleFunction:
    cover = random_cover(rng, lattice, max_parts)
    lo = 0 if nonneg else coeff_lo
    return canonicalize(lattice, [(random_rational(rng, lo, coeff_hi, denominators), part)
                                  for part in cover])


def random_measure(rng: Random, frame: CongruenceFrame,
                   inf_probability: float = 0.0) -> Measure:
    """Additive measure from random weights on the atoms of S(L): the
    measure of S is the weight sum over the atoms below it.  The weights
    are drawn in the frame order of the atoms, then put in bit order."""
    masks = [a.keep for a in frame.atoms()]
    weights = [random_weight(rng, inf_probability) for _ in masks]
    return Measure(frame, [w for _, w in sorted(zip(masks, weights))])


def random_subset(rng: Random, items: Sequence[str]) -> List[str]:
    return [x for x in items if rng.random() < 0.5]
