"""The acceptance suite: nine exact, seeded verification criteria.

Each criterion draws its own deterministic RNG from the suite seed, runs
the pinned number of randomized cases, and raises on the first failure;
``run_all`` collects the outcomes.  Everything is exact arithmetic: every
comparison is equality or order of Fractions, ladders or canonical term
lists, never a tolerance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, Dict, List, Tuple

from . import cutfunction as cf
from . import simple as sf
from .bridge import ClassicalSimpleFunction, FiniteMeasurableSpace, bridge_check
from .corpus import (
    corpus_lattices,
    random_measure,
    random_rational,
    random_simple,
    random_subset,
    random_weight,
)
from .errors import NotIntegrable
from .integrate import (
    SUMMABLE,
    characteristic_of_sublocale,
    indefinite_integral,
    integral_of_representation,
    integrate_general,
    integrate_simple,
    nonnegativity_certificate,
    restrict_vs_multiply,
    summability,
)
from .lattice import FiniteLattice
from .measure import check_axioms
from .rationals import POS_INF, UndefinedSum, ext_add, ext_le, ext_scale
from .simple import (
    SimpleFunction,
    canonicalize,
    decompose_trace,
    decomposition_grid,
    sf_add,
    sf_mul,
    sf_neg,
    sf_scale,
    stage_table,
    to_cut_function,
    zero,
)

_corpus: Dict[str, FiniteLattice] = {}


def corpus() -> Dict[str, FiniteLattice]:
    if not _corpus:
        _corpus.update(corpus_lattices())
    return _corpus


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


# -- 1. bridge oracle ---------------------------------------------------------------


def criterion_bridge(seed: int) -> str:
    rng = Random(seed)
    cases = 1000
    lattices: Dict[int, object] = {}
    for _ in range(cases):
        size = rng.randint(1, 5)
        points = [f"p{i}" for i in range(size)]
        weights = {p: random_weight(rng, inf_probability=0.12) for p in points}
        space = FiniteMeasurableSpace.powerset(points, weights)
        if size in lattices:
            space._lattice = lattices[size]
        else:
            lattices[size] = space.lattice()
        f = ClassicalSimpleFunction(
            space, {p: random_rational(rng, -8, 8, (1, 2, 3)) for p in points})
        a_sub = frozenset(random_subset(rng, points))
        bridge_check(space, f, a_sub)  # raises on any disagreement
    return f"{cases} randomized cases agree exactly, classification included"


# -- 2. indefinite integral is a measure ----------------------------------------------


def criterion_indefinite(seed: int) -> str:
    rng = Random(seed)
    per_lattice = 100
    total = 0
    for lat in corpus().values():
        view = lat.congruence_frame().view()
        facade = view.frame.as_lattice()
        for _ in range(per_lattice):
            mu = random_measure(rng, view, inf_probability=0.1)
            g = random_simple(rng, facade, nonneg=True)
            eta = indefinite_integral(g, mu)  # validated by the additive fast path
            check_axioms(view, [v for _, v in eta.items()])  # oracle: M1-M3 over all pairs
            total += 1
    return f"{total} indefinite integrals validated as measures (M1-M3 exhaustive)"


# -- 3. subring laws ---------------------------------------------------------------------


def criterion_subring(seed: int) -> str:
    rng = Random(seed)
    per_lattice = 500
    for lat in corpus().values():
        one = sf.constant_simple(Fraction(1), lat)
        nil = zero(lat)
        for _ in range(per_lattice):
            g = random_simple(rng, lat, coeff_lo=-6, coeff_hi=6)
            h = random_simple(rng, lat, coeff_lo=-6, coeff_hi=6)
            k = random_simple(rng, lat, coeff_lo=-6, coeff_hi=6)
            check(sf_add(g, h) == sf_add(h, g), "addition is not commutative")
            check(sf_add(sf_add(g, h), k) == sf_add(g, sf_add(h, k)),
                  "addition is not associative")
            check(sf_add(g, nil) == g, "zero is not neutral")
            check(sf_add(g, sf_neg(g)) == nil, "negation is not inverse")
            check(sf_mul(g, h) == sf_mul(h, g), "multiplication is not commutative")
            check(sf_mul(sf_mul(g, h), k) == sf_mul(g, sf_mul(h, k)),
                  "multiplication is not associative")
            check(sf_mul(g, one) == g, "one is not neutral")
            check(sf_mul(g, sf_add(h, k)) == sf_add(sf_mul(g, h), sf_mul(g, k)),
                  "distributivity fails")
            lam = random_rational(rng, -4, 4, (1, 2, 3))
            check(sf_scale(lam, sf_add(g, h)) == sf_add(sf_scale(lam, g), sf_scale(lam, h)),
                  "scalar action is not additive")
            # the ladder arithmetic agrees with the canonical-term arithmetic
            cg, ch = to_cut_function(g), to_cut_function(h)
            check(to_cut_function(sf_add(g, h)) == cf.add(cg, ch),
                  "ladder addition disagrees with term addition")
            check(to_cut_function(sf_scale(lam, g)) == cf.scale(lam, cg),
                  "ladder scaling disagrees with term scaling")
            gp, hp = sf.abs_simple(g), sf.abs_simple(h)
            check(to_cut_function(sf_mul(gp, hp))
                  == cf.mul_nonneg(to_cut_function(gp), to_cut_function(hp)),
                  "ladder multiplication disagrees with term multiplication")
    return f"ring axioms and ladder consistency on {per_lattice} triples per lattice"


# -- 4. canonical form uniqueness -----------------------------------------------------------


def _messy_representation(rng: Random, g: SimpleFunction) -> List[Tuple[Fraction, str]]:
    """A non-canonical list of terms denoting the same function: refine by
    complemented elements, split coefficients, permute."""
    lat = g.carrier
    pool = [e for e in lat.complemented_elements()]
    terms: List[Tuple[Fraction, str]] = []
    for r, a in g.terms:
        e = rng.choice(pool)
        inside = lat.meet(a, e)
        outside = lat.meet(a, lat.complement(e))
        pieces = [p for p in (inside, outside) if p != lat.bottom]
        for p in pieces:
            if r != 0 and rng.random() < 0.3:
                split = random_rational(rng, -3, 3, (1, 2))
                terms.append((split, p))
                terms.append((r - split, p))
            else:
                terms.append((r, p))
    rng.shuffle(terms)
    return terms


def criterion_canonical(seed: int) -> str:
    rng = Random(seed)
    cases = 500
    names = list(corpus().values())
    for i in range(cases):
        lat = names[i % len(names)]
        g = random_simple(rng, lat, coeff_lo=-6, coeff_hi=6)
        check(canonicalize(lat, g.terms) == g, "canonicalize is not idempotent")
        permuted = list(g.terms)
        rng.shuffle(permuted)
        check(canonicalize(lat, permuted) == g,
              "canonical form depends on term order")
        check(canonicalize(lat, _messy_representation(rng, g)) == g,
              "canonical form depends on the representation")
    return f"{cases} representations: permutation and refinement invariant, idempotent"


# -- 5. evaluation tables ---------------------------------------------------------------------


def criterion_tables(seed: int) -> str:
    rng = Random(seed)
    cases = 200
    names = list(corpus().values())
    for i in range(cases):
        lat = names[i % len(names)]
        g = random_simple(rng, lat, coeff_lo=-6, coeff_hi=6)
        acc = cf.constant(Fraction(0), lat)
        for r, a in g.terms:
            acc = cf.add(acc, cf.scale(r, cf.characteristic(a, lat)))
        check(acc == to_cut_function(g),
              "iterated ladder addition disagrees with the closed-form table")
    return f"{cases} canonical functions: closed-form ladders equal iterated sums"


# -- 6. decomposition ----------------------------------------------------------------------------


def _decompose_corpus(rng: Random, lat: FiniteLattice) -> List[cf.CutFunction]:
    """Nonnegative simple inputs with coefficients capped at 2: one 1/k step
    per stage can only keep the residual under 1/k when the start is <= 2."""
    out = [to_cut_function(zero(lat)),
           cf.constant(Fraction(1), lat),
           cf.constant(Fraction(2), lat)]
    for a in lat.complemented_elements():
        if a not in (lat.bottom, lat.top):
            out.append(cf.characteristic(a, lat))
    for _ in range(4):
        out.append(to_cut_function(
            random_simple(rng, lat, nonneg=True, coeff_lo=0, coeff_hi=2,
                          denominators=(1, 2, 3, 4, 6))))
    return out


def criterion_decompose(seed: int) -> str:
    rng = Random(seed)
    horizon = 12
    harmonic = [Fraction(0)]
    for i in range(1, horizon + 1):
        harmonic.append(harmonic[-1] + Fraction(1, i))
    for k in range(1, horizon + 1):
        grid = decomposition_grid(k)
        check(grid[0] == 0 and grid[1] == Fraction(1, k), "grid must start 0, 1/k")
        check(grid[-1] == harmonic[k], "grid must end at the harmonic sum")
        if len(grid) > 2:
            check(grid[-2] == harmonic[k - 1], "second-to-last grid point is wrong")
        check(all(grid[i + 1] - grid[i] <= Fraction(1, k) for i in range(len(grid) - 1)),
              f"grid gaps exceed 1/{k}")
    count = 0
    milestones = {1: Fraction(0), 2: Fraction(1, 2), 3: Fraction(5, 6), 7: Fraction(41, 42)}
    for name, lat in corpus().items():
        for f in _decompose_corpus(rng, lat):
            trace = decompose_trace(f, horizon)
            stages = [to_cut_function(step.stage) for step in trace]
            for k, stage in enumerate(stages, start=1):
                check(stage == stage_table(f, k),
                      f"stage {k} ladders deviate from the closed-form table")
            for k in range(horizon - 1):
                check(cf.leq(stages[k], stages[k + 1]), "stages are not increasing")
            for stage in stages:
                check(cf.leq(stage, f), "a stage exceeds the target")
            for step in trace:
                check(step.residual_sup is not None
                      and step.residual_sup <= Fraction(1, step.k),
                      f"residual exceeds 1/{step.k}")
            count += 1
        one = cf.constant(Fraction(1), lat)
        values = {s.k: s.stage for s in decompose_trace(one, 7)}
        for k, expected in milestones.items():
            check(values[k] == sf.constant_simple(expected, lat),
                  f"milestone f_{k} != {expected}")
    return f"{count} decompositions conform to the stage table at K={horizon}"


# -- 7. integral propositions ----------------------------------------------------------------------


def criterion_integral_props(seed: int) -> str:
    rng = Random(seed)
    per_lattice = 60
    checked = 0
    for lat in corpus().values():
        view = lat.congruence_frame().view()
        facade = view.frame.as_lattice()
        subs = view.sublocales
        for _ in range(per_lattice):
            mu = random_measure(rng, view, inf_probability=0.08)
            g = random_simple(rng, facade, coeff_lo=-6, coeff_hi=6)
            h = random_simple(rng, facade, coeff_lo=-6, coeff_hi=6)
            s = subs[rng.randrange(len(subs))]

            # scalar linearity
            lam = random_rational(rng, -4, 4, (1, 2, 3))
            rep_g = summability(g, mu, s)
            if rep_g.classification != "not-integrable":
                value_g, _ = integrate_simple(g, mu, s)
                value_lg, _ = integrate_simple(sf_scale(lam, g), mu, s)
                check(value_lg == ext_scale(lam, value_g), "scalar linearity fails")

            # additivity whenever every classification and the sum are defined
            rep_h = summability(h, mu, s)
            gh = sf_add(g, h)
            rep_gh = summability(gh, mu, s)
            if all(r.classification != "not-integrable" for r in (rep_g, rep_h, rep_gh)):
                try:
                    expected = ext_add(integrate_simple(g, mu, s)[0],
                                       integrate_simple(h, mu, s)[0])
                except UndefinedSum:
                    expected = None
                if expected is not None:
                    check(integrate_simple(gh, mu, s)[0] == expected, "additivity fails")

            # monotonicity in the integrand: h2 = g + nonnegative
            d = random_simple(rng, facade, nonneg=True, coeff_hi=4)
            h2 = sf_add(g, d)
            if (rep_g.classification != "not-integrable"
                    and summability(h2, mu, s).classification != "not-integrable"):
                check(ext_le(integrate_simple(g, mu, s)[0],
                             integrate_simple(h2, mu, s)[0]),
                      "monotonicity in the integrand fails")

            # relaxed monotonicity: add a disturbance vanishing on S
            chi_off = characteristic_of_sublocale(view, view.complement(s))
            d2 = sf_mul(random_simple(rng, facade, coeff_lo=-5, coeff_hi=5), chi_off)
            h3 = sf_add(g, d2)
            side = facade.meet(view.frame.complement(s).partition_name(),
                               to_cut_function(sf_add(h3, sf_neg(g))).lower_at(Fraction(0)))
            check(side == facade.bottom, "constructed disturbance is not off-S")
            if (rep_g.classification != "not-integrable"
                    and summability(h3, mu, s).classification != "not-integrable"):
                check(ext_le(integrate_simple(g, mu, s)[0],
                             integrate_simple(h3, mu, s)[0]),
                      "relaxed monotonicity fails")

            # monotonicity in the sublocale for nonnegative integrands
            gpos = random_simple(rng, facade, nonneg=True, coeff_hi=5)
            t = subs[rng.randrange(len(subs))]
            if view.leq(s, t):
                check(ext_le(integrate_simple(gpos, mu, s)[0],
                             integrate_simple(gpos, mu, t)[0]),
                      "monotonicity in the sublocale fails")

            # representation independence, with a negative term on the void part
            if rep_g.classification != "not-integrable":
                messy = _messy_representation(rng, g)
                messy_disjoint = list(canonicalize(facade, messy).terms)
                rng.shuffle(messy_disjoint)
                messy_disjoint.append((Fraction(-7), facade.bottom))
                check(integral_of_representation(view, messy_disjoint, mu, s)
                      == integrate_simple(g, mu, s)[0],
                      "representation independence fails")

            # restriction vs product (raises internally on inequality)
            if rep_g.classification != "not-integrable":
                restrict_vs_multiply(g, mu, s)

            # nonnegativity certificate
            if rep_g.classification != "not-integrable":
                nonnegativity_certificate(g, mu, s)
            gcert = sf_mul(random_simple(rng, facade, coeff_lo=-5, coeff_hi=5),
                           characteristic_of_sublocale(view, s))
            gcert = sf_add(gcert, random_simple(rng, facade, nonneg=True, coeff_hi=4))
            if summability(gcert, mu, s).classification != "not-integrable":
                if nonnegativity_certificate(gcert, mu, view.complement(s)):
                    checked += 1

            # summable closure and linearity on summables
            mu_fin = random_measure(rng, view, inf_probability=0.0)
            check(summability(g, mu_fin, s).classification == SUMMABLE,
                  "finite measures must make every simple function summable")
            check(summability(sf_add(g, h), mu_fin, s).classification == SUMMABLE,
                  "summable closure fails")
            r1 = random_rational(rng, -3, 3, (1, 2))
            r2 = random_rational(rng, -3, 3, (1, 2))
            lhs = integrate_simple(sf_add(sf_scale(r1, g), sf_scale(r2, h)), mu_fin, s)[0]
            rhs = ext_add(ext_scale(r1, integrate_simple(g, mu_fin, s)[0]),
                          ext_scale(r2, integrate_simple(h, mu_fin, s)[0]))
            check(lhs == rhs, "linearity on summable functions fails")
            checked += 1
    return f"{checked} randomized proposition checks across the corpus"


# -- 8. limits -------------------------------------------------------------------------------------------


def criterion_limits(seed: int) -> str:
    rng = Random(seed)
    cases = 200
    lattices = [corpus()["b4"], corpus()["b8"], corpus()["div12"]]
    for i in range(cases):
        lat = lattices[i % len(lattices)]
        carrier = lat.congruence_frame().as_lattice() if i % 2 else lat
        members = [to_cut_function(random_simple(rng, carrier, coeff_lo=-4, coeff_hi=4))
                   for _ in range(rng.randint(1, 4))]
        tail = to_cut_function(random_simple(rng, carrier, coeff_lo=-4, coeff_hi=4))
        seq = cf.FunctionSequence(tuple(members), tail)
        liminf, limsup, limit = cf.limits(seq)
        check(cf.leq(liminf, limsup), "liminf exceeds limsup")
        check(limit is not None and limit == tail,
              "an eventually constant sequence must converge to its tail")
    # the harmonic example: 1, 1/2, ..., 1/12, then the declared tail 0
    for lat in (corpus()["b4"], corpus()["div60"]):
        carrier = lat.congruence_frame().as_lattice()
        prefix = tuple(cf.constant(Fraction(1, n), carrier) for n in range(1, 13))
        _, _, limit = cf.limits(cf.FunctionSequence(prefix, cf.constant(Fraction(0), carrier)))
        check(limit == cf.constant(Fraction(0), carrier), "lim 1/n != 0")
    # super/subadditivity
    pairs = 60
    for i in range(pairs):
        lat = lattices[i % len(lattices)]
        n = rng.randint(1, 3)
        fs = [to_cut_function(random_simple(rng, lat, coeff_lo=-4, coeff_hi=4))
              for _ in range(n + 1)]
        gs = [to_cut_function(random_simple(rng, lat, coeff_lo=-4, coeff_hi=4))
              for _ in range(n + 1)]
        seq_f = cf.FunctionSequence(tuple(fs[:n]), fs[n])
        seq_g = cf.FunctionSequence(tuple(gs[:n]), gs[n])
        seq_sum = cf.FunctionSequence(tuple(cf.add(fs[k], gs[k]) for k in range(n)),
                                      cf.add(fs[n], gs[n]))
        li_f, ls_f, _ = cf.limits(seq_f)
        li_g, ls_g, _ = cf.limits(seq_g)
        li_s, ls_s, _ = cf.limits(seq_sum)
        check(cf.leq(cf.add(li_f, li_g), li_s), "superadditivity of liminf fails")
        check(cf.leq(ls_s, cf.add(ls_f, ls_g)), "subadditivity of limsup fails")
    return f"{cases} sequences ordered, harmonic example exact, {pairs} additivity pairs"


# -- 9. general integral -----------------------------------------------------------------------------------


def criterion_general(seed: int) -> str:
    rng = Random(seed)
    per_lattice = 50
    count = 0
    for lat in corpus().values():
        view = lat.congruence_frame().view()
        facade = view.frame.as_lattice()
        for _ in range(per_lattice):
            mu = random_measure(rng, view, inf_probability=0.08)
            g = random_simple(rng, facade, coeff_lo=-6, coeff_hi=6)
            s = view.sublocales[rng.randrange(len(view.sublocales))]
            try:
                expected, _ = integrate_simple(g, mu, s)
            except NotIntegrable:
                expected = None
            try:
                got = integrate_general(to_cut_function(g), mu, s)
            except NotIntegrable:
                got = None
            check(got == expected, "general integral deviates from the simple one")
            count += 1
        mu_pos = random_measure(rng, view, inf_probability=0.0)
        while mu_pos.value(view.top) == 0:
            mu_pos = random_measure(rng, view)
        check(integrate_general(cf.constant(POS_INF, facade), mu_pos) == POS_INF,
              "the constant inf must integrate to inf over positive measure")
    return f"{count} simple integrands agree; constant inf handled"


# -- runner ---------------------------------------------------------------------------------------------------


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


CRITERIA: List[Tuple[str, Callable[[int], str]]] = [
    ("bridge-oracle equivalence", criterion_bridge),
    ("indefinite integral is a measure", criterion_indefinite),
    ("subring laws and ladder consistency", criterion_subring),
    ("canonical-form uniqueness", criterion_canonical),
    ("evaluation tables", criterion_tables),
    ("decomposition sequence", criterion_decompose),
    ("integral propositions", criterion_integral_props),
    ("limits of sequences", criterion_limits),
    ("general-integral consistency", criterion_general),
]


def run_all(seed: int = 0) -> List[CriterionResult]:
    results = []
    for number, (name, fn) in enumerate(CRITERIA, start=1):
        start = time.perf_counter()
        try:
            detail = fn(seed * 1000 + number)
            passed = True
        except Exception as exc:  # report, never abort the suite
            detail = f"{type(exc).__name__}: {exc}"
            passed = False
        results.append(CriterionResult(number, name, passed, detail,
                                       time.perf_counter() - start))
    return results


def format_lines(results: List[CriterionResult]) -> List[str]:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.number} {r.name}: {r.detail}")
    lines.append("result: " + ("all criteria passed"
                               if all(r.passed for r in results)
                               else "FAILURES present"))
    return lines
