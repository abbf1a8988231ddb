"""Pointwise oracle over the points of a Boolean carrier.

A function on a finite Boolean carrier is a map from its points (atoms) to
values.  Canonical forms, cut ladders, integrals and decompositions are
computed here with dict and set arithmetic alone, independent of the
library's term and ladder algebra.  Elements are represented by the
frozenset of points below them; the run maps them to element names.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, FrozenSet, Optional, Tuple

from .gen import INF

Points = FrozenSet[str]


def canonical_terms(f: Dict[str, Fraction]) -> Tuple[Tuple[Fraction, Points], ...]:
    """Ascending coefficients over the level sets."""
    levels: Dict[Fraction, set] = {}
    for x, v in f.items():
        levels.setdefault(v, set()).add(x)
    return tuple((v, frozenset(levels[v])) for v in sorted(levels))


def sum_of_terms(points, terms) -> Dict[str, Fraction]:
    """sum_i r_i * chi(a_i) for possibly overlapping a_i."""
    return {x: sum((r for r, a in terms if x in a), Fraction(0)) for x in points}


def ladders(f: Dict[str, object]) -> Tuple[tuple, tuple, tuple]:
    """Normalised cut ladders of a (possibly extended) step function:
    f(p,-) = {x : f(x) > p} right of each breakpoint, f(-,q) = {x : f(x) < q}
    left of each breakpoint."""
    bp = sorted({v for v in f.values() if v not in (INF, -INF)})
    if not bp:
        ups, lows = [Fraction(0)], [Fraction(0)]
    else:
        ups = [bp[0] - 1] + bp
        lows = bp + [bp[-1] + 1]
    upper = tuple(frozenset(x for x, v in f.items() if v > p) for p in ups)
    lower = tuple(frozenset(x for x, v in f.items() if v < q) for q in lows)
    return tuple(bp), upper, lower


def nonneg_sum(f: Dict[str, object], w: Dict[str, object], over) -> object:
    """sum_x f(x) w(x) over `over` for f, w >= 0 with 0 * inf = 0."""
    total = Fraction(0)
    for x in over:
        c, m = f[x], w[x]
        if c == 0 or m == 0:
            continue
        if c == INF or m == INF:
            return INF
        total += c * m
    return total


def classify(pos, neg) -> Tuple[str, Optional[object]]:
    """Classification and value from the integrals of the two parts."""
    if pos != INF and neg != INF:
        return "summable", pos - neg
    if pos != INF or neg != INF:
        return "integrable-not-summable", INF if pos == INF else -INF
    return "not-integrable", None


def integral(f: Dict[str, object], w: Dict[str, object], over) -> tuple:
    """(positive part, negative part, classification, value or None)."""
    pos = nonneg_sum({x: max(v, Fraction(0)) for x, v in f.items()}, w, over)
    neg = nonneg_sum({x: max(-v, Fraction(0)) for x, v in f.items()}, w, over)
    cls, value = classify(pos, neg)
    return pos, neg, cls, value


def decomposition(f: Dict[str, Fraction], horizon: int):
    """The harmonic greedy steps: a_k = {x : f(x) - f_{k-1}(x) > 1/k},
    f_k = f_{k-1} + (1/k) chi(a_k), residual = max(f - f_k)."""
    fk = {x: Fraction(0) for x in f}
    steps = []
    for k in range(1, horizon + 1):
        step = Fraction(1, k)
        cell = frozenset(x for x in f if f[x] - fk[x] > step)
        for x in cell:
            fk[x] += step
        residual = max(f[x] - fk[x] for x in f)
        steps.append((k, cell, canonical_terms(fk), residual))
    return steps
