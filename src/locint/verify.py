"""The acceptance suite: nine exact, seeded verification criteria.

Each criterion draws its own deterministic RNG from the suite seed, runs
the pinned number of randomized cases, and raises on the first failure;
``run_all`` collects the outcomes.  Everything is exact arithmetic: every
comparison is equality or order of Fractions, ladders or canonical term
lists, never a tolerance.
"""

from __future__ import annotations

import time
from contextlib import suppress
from fractions import Fraction
from math import lcm
from random import Random
from typing import Callable, List, NamedTuple, Optional, Tuple

from . import cutfunction as cf
from . import simple as sf
from .bridge import ClassicalSimpleFunction, FiniteMeasurableSpace, bridge_check
from .corpus import (
    CorpusEntry,
    corpus,
    random_measure,
    random_rational,
    random_simple,
    random_subset,
    random_weight,
    seeded_corpus,
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
    report_value,
    restrict_vs_multiply,
    summability,
)
from .lattice import FiniteLattice
from .measure import Measure, check_axioms
from .rationals import POS_INF, ExtValue, UndefinedSum, ext_add, ext_le, ext_scale
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

def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def _widened(per_lattice: int, per_seeded: int) -> List[Tuple[CorpusEntry, int]]:
    """(entry, its number of cases): each lattice of ``corpus()``, then each
    seeded down-set lattice of ``seeded_corpus()``, drawn after them so
    that the corpus cases stay as they were."""
    return ([(entry, per_lattice) for entry in corpus()]
            + [(entry, per_seeded) for entry in seeded_corpus()])


def _integral(f, mu: Measure, s) -> Optional[ExtValue]:
    """The integral of f over s, a simple function's through
    ``integrate_simple`` and a cut function's through
    ``integrate_general``, or None where f is not integrable over s."""
    try:
        if isinstance(f, cf.CutFunction):
            return integrate_general(f, mu, s)
        return integrate_simple(f, mu, s)[0]
    except NotIntegrable:
        return None


# -- 1. bridge oracle ---------------------------------------------------------------


def criterion_bridge(seed: int) -> str:
    rng = Random(seed)
    cases = 1000
    for _ in range(cases):
        size = rng.randint(1, 5)
        points = [f"p{i}" for i in range(size)]
        weights = {p: random_weight(rng, inf_probability=0.12) for p in points}
        space = FiniteMeasurableSpace.powerset(points, weights)
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
    for _, _, frame, facade in corpus():
        for _ in range(per_lattice):
            mu = random_measure(rng, frame, inf_probability=0.1)
            g = random_simple(rng, facade, nonneg=True)
            eta = indefinite_integral(g, mu)  # summed from the integrals over the atoms
            pairs = list(eta.items())
            check_axioms(frame, [v for _, v in pairs])  # oracle: M1-M3 over all pairs
            for s, v in pairs:  # oracle: the integral over each sublocale
                check(v == integrate_simple(g, mu, s)[0],
                      f"indefinite integral differs at {frame.ref_name(s)}")
            total += 1
    return f"{total} indefinite integrals validated as measures (M1-M3 exhaustive)"


# -- 3. subring laws ---------------------------------------------------------------------


def criterion_subring(seed: int) -> str:
    """The ring laws on the ladder kernels, which feed their outputs back
    into each other, and the ladder operations equal to the converted
    vector operations (closure: a subring of the cut ladders)."""
    rng = Random(seed)
    per_lattice, per_seeded = 500, 30
    for (_, lat, _, _), cases in _widened(per_lattice, per_seeded):
        nil = cf.constant(Fraction(0), lat)
        for _ in range(cases):
            g = random_simple(rng, lat, coeff_lo=-6, coeff_hi=6)
            h = random_simple(rng, lat, coeff_lo=-6, coeff_hi=6)
            k = random_simple(rng, lat, coeff_lo=-6, coeff_hi=6)
            cg, ch, ck = to_cut_function(g), to_cut_function(h), to_cut_function(k)
            cgh = cf.add(cg, ch)
            check(cgh == cf.add(ch, cg), "addition is not commutative")
            check(cf.add(cgh, ck) == cf.add(cg, cf.add(ch, ck)), "addition is not associative")
            check(cf.add(cg, nil) == cg, "zero is not neutral")
            check(cf.add(cg, cf.negate(cg)) == nil, "negation is not inverse")
            lam = random_rational(rng, -4, 4, (1, 2, 3))
            lg = cf.scale(lam, cg)
            check(cf.scale(lam, cgh) == cf.add(lg, cf.scale(lam, ch)),
                  "scalar action is not additive")
            gp, hp, kp = sf.abs_simple(g), sf.abs_simple(h), sf.abs_simple(k)
            cgp, chp, ckp = to_cut_function(gp), to_cut_function(hp), to_cut_function(kp)
            cgph = cf.mul_nonneg(cgp, chp)
            check(cgph == cf.mul_nonneg(chp, cgp), "multiplication is not commutative")
            check(cf.mul_nonneg(cgph, ckp) == cf.mul_nonneg(cgp, cf.mul_nonneg(chp, ckp)),
                  "multiplication is not associative")
            check(cf.mul_nonneg(cgp, cf.add(chp, ckp)) == cf.add(cgph, cf.mul_nonneg(cgp, ckp)),
                  "distributivity fails")
            # the ladder arithmetic agrees with the canonical-term arithmetic
            check(to_cut_function(sf_add(g, h)) == cgh,
                  "ladder addition disagrees with term addition")
            check(to_cut_function(sf_scale(lam, g)) == lg,
                  "ladder scaling disagrees with term scaling")
            check(to_cut_function(sf_mul(gp, hp)) == cgph,
                  "ladder multiplication disagrees with term multiplication")
    return (f"ring axioms and ladder consistency on {per_lattice} triples per corpus lattice"
            f" and {per_seeded} per down-set lattice")


# -- 4. canonical form uniqueness -----------------------------------------------------------


def _messy_representation(rng: Random, g: SimpleFunction) -> List[Tuple[Fraction, str]]:
    """A non-canonical list of terms denoting the same function: refine by
    complemented elements, split coefficients, permute."""
    lat = g.carrier
    mask, at = lat._mask, lat._at
    pool = lat.complemented_elements()
    terms: List[Tuple[Fraction, str]] = []
    for r, a in g.terms:
        e, m = mask[rng.choice(pool)], mask[a]
        pieces = [at[q] for q in (m & e, m & ~e) if q]  # a inside e, a outside e
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
    lattices = [entry.lattice for entry in corpus()]
    for i in range(cases):
        lat = lattices[i % len(lattices)]
        g = random_simple(rng, lat, coeff_lo=-6, coeff_hi=6)
        check(canonicalize(lat, g.terms) == g, "canonicalize is not idempotent")
        # a zero term on the top adds nothing to any centre atom
        check(canonicalize(lat, list(g.terms) + [(0, lat.top)]) == g,
              "a zero term on the top changes the canonical form")
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
    lattices = [entry.lattice for entry in corpus()]
    for i in range(cases):
        lat = lattices[i % len(lattices)]
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
    for _, lat, _, _ in corpus():
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
    checked = 0
    for (_, _, frame, facade), cases in _widened(60, 20):
        subs = frame.congruences
        for _ in range(cases):
            mu = random_measure(rng, frame, inf_probability=0.08)
            g = random_simple(rng, facade, coeff_lo=-6, coeff_hi=6)
            h = random_simple(rng, facade, coeff_lo=-6, coeff_hi=6)
            s = subs[rng.randrange(len(subs))]

            # scalar linearity
            lam = random_rational(rng, -4, 4, (1, 2, 3))
            int_g = _integral(g, mu, s)
            if int_g is not None:
                check(_integral(sf_scale(lam, g), mu, s) == ext_scale(lam, int_g),
                      "scalar linearity fails")

            # additivity whenever every integral and the sum are defined
            int_h, int_gh = _integral(h, mu, s), _integral(sf_add(g, h), mu, s)
            if None not in (int_g, int_h, int_gh):
                with suppress(UndefinedSum):
                    check(int_gh == ext_add(int_g, int_h), "additivity fails")

            # monotonicity in the integrand: h2 = g + nonnegative
            d = random_simple(rng, facade, nonneg=True, coeff_hi=4)
            int_h2 = _integral(sf_add(g, d), mu, s)
            if None not in (int_g, int_h2):
                check(ext_le(int_g, int_h2), "monotonicity in the integrand fails")

            # relaxed monotonicity: add a disturbance vanishing on S
            off = frame.complement(s)
            chi_off = characteristic_of_sublocale(frame, off)
            d2 = sf_mul(random_simple(rng, facade, coeff_lo=-5, coeff_hi=5), chi_off)
            h3 = sf_add(g, d2)
            side = facade.meet(frame.element_of(off),
                               to_cut_function(sf_add(h3, sf_neg(g))).lower_at(Fraction(0)))
            check(side == facade.bottom, "constructed disturbance is not off-S")
            int_h3 = _integral(h3, mu, s)
            if None not in (int_g, int_h3):
                check(ext_le(int_g, int_h3), "relaxed monotonicity fails")

            # monotonicity in the sublocale for nonnegative integrands
            gpos = random_simple(rng, facade, nonneg=True, coeff_hi=5)
            t = subs[rng.randrange(len(subs))]
            if frame.leq(s, t):
                check(ext_le(_integral(gpos, mu, s), _integral(gpos, mu, t)),
                      "monotonicity in the sublocale fails")

            if int_g is not None:
                # representation independence, with a negative term on the void part
                messy = _messy_representation(rng, g)
                messy_disjoint = list(canonicalize(facade, messy).terms)
                rng.shuffle(messy_disjoint)
                messy_disjoint.append((Fraction(-7), facade.bottom))
                check(integral_of_representation(messy_disjoint, mu, s) == int_g,
                      "representation independence fails")
                # restriction vs product (raises internally on inequality)
                restrict_vs_multiply(g, mu, s)
                # nonnegativity certificate
                nonnegativity_certificate(g, mu, s)
            gcert = sf_mul(random_simple(rng, facade, coeff_lo=-5, coeff_hi=5),
                           characteristic_of_sublocale(frame, s))
            gcert = sf_add(gcert, random_simple(rng, facade, nonneg=True, coeff_hi=4))
            if (_integral(gcert, mu, s) is not None
                    and nonnegativity_certificate(gcert, mu, frame.complement(s))):
                checked += 1

            # summable closure and linearity on summables
            mu_fin = random_measure(rng, frame, inf_probability=0.0)
            fin_g = summability(g, mu_fin, s)
            check(fin_g.classification == SUMMABLE,
                  "finite measures must make every simple function summable")
            check(summability(sf_add(g, h), mu_fin, s).classification == SUMMABLE,
                  "summable closure fails")
            r1 = random_rational(rng, -3, 3, (1, 2))
            r2 = random_rational(rng, -3, 3, (1, 2))
            lhs = _integral(sf_add(sf_scale(r1, g), sf_scale(r2, h)), mu_fin, s)
            rhs = ext_add(ext_scale(r1, report_value(fin_g)),
                          ext_scale(r2, _integral(h, mu_fin, s)))
            check(lhs == rhs, "linearity on summable functions fails")
            checked += 1
    return (f"{checked} randomized proposition checks across the corpus"
            f" and {len(seeded_corpus())} down-set lattices")


# -- 8. limits -------------------------------------------------------------------------------------------


def criterion_limits(seed: int) -> str:
    rng = Random(seed)
    cases = 200
    entries = {entry.name: entry for entry in corpus()}
    lattices = [entries[name].lattice for name in ("b4", "b8", "div12")]
    facades = [entries[name].carrier for name in ("b4", "b8", "div12")]

    def sequence(carrier: FiniteLattice, n: int) -> cf.FunctionSequence:
        """n members, then a cycle of 1-3 drawn from two more, repeats allowed."""
        fs = [to_cut_function(random_simple(rng, carrier, coeff_lo=-4, coeff_hi=4))
              for _ in range(n + 2)]
        return cf.FunctionSequence(fs[:n], rng.choices(fs[n:], k=rng.randint(1, 3)))

    for i in range(cases):
        seq = sequence((facades if i % 2 else lattices)[i % len(lattices)], rng.randint(0, 3))
        liminf, limsup, limit = cf.limits(seq)
        check(cf.leq(liminf, limsup) and cf.leq(limsup, liminf) == (limit is not None),
              "liminf must lie below limsup, strictly unless the limit exists")
        family = seq.prefix + seq.cycle
        check(cf.leq(cf.seq_inf(family), liminf) and cf.leq(limsup, cf.seq_sup(family)),
              "the limits leave the bounds of the sequence")
        n = len(seq.prefix)
        check(all(cf.leq(liminf, seq.at(k)) and cf.leq(seq.at(k), limsup)
                  for k in range(n, n + len(seq.cycle))),
              "a member that recurs forever lies outside [liminf, limsup]")
        constant_tail = all(c == seq.cycle[0] for c in seq.cycle)
        check((limit is not None) == constant_tail and limit in (None, seq.cycle[0]),
              "a sequence must converge iff its cycle is constant, to that constant")
    # the harmonic example: 1, 1/2, ..., 1/12, then the declared tail 0
    for carrier in (entries["b4"].carrier, entries["div60"].carrier):
        prefix = tuple(cf.constant(Fraction(1, n), carrier) for n in range(1, 13))
        _, _, limit = cf.limits(cf.FunctionSequence(prefix, cf.constant(Fraction(0), carrier)))
        check(limit == cf.constant(Fraction(0), carrier), "lim 1/n != 0")
    # the alternating example: chi_x, chi_y, chi_x, ... on B4
    b4 = entries["b4"].lattice
    alternating = cf.FunctionSequence((), (cf.characteristic("x", b4), cf.characteristic("y", b4)))
    check(cf.limits(alternating) == (cf.constant(Fraction(0), b4), cf.constant(Fraction(1), b4), None),
          "chi_x, chi_y, chi_x, ... must have liminf 0, limsup 1 and no limit")
    # super/subadditivity over the pointwise sum, whose cycle has length lcm(p, q)
    pairs = 60
    for i in range(pairs):
        lat = lattices[i % len(lattices)]
        n = rng.randint(0, 2)
        seq_f, seq_g = sequence(lat, n), sequence(lat, n)
        sums = [cf.add(seq_f.at(k), seq_g.at(k))
                for k in range(n + lcm(len(seq_f.cycle), len(seq_g.cycle)))]
        li_f, ls_f, _ = cf.limits(seq_f)
        li_g, ls_g, _ = cf.limits(seq_g)
        li_s, ls_s, _ = cf.limits(cf.FunctionSequence(sums[:n], sums[n:]))
        check(cf.leq(cf.add(li_f, li_g), li_s), "superadditivity of liminf fails")
        check(cf.leq(ls_s, cf.add(ls_f, ls_g)), "subadditivity of limsup fails")
    return f"{cases} sequences ordered, harmonic example exact, {pairs} additivity pairs"


# -- 9. general integral -----------------------------------------------------------------------------------


def criterion_general(seed: int) -> str:
    rng = Random(seed)
    count = 0
    for (_, _, frame, facade), cases in _widened(50, 50):
        for _ in range(cases):
            mu = random_measure(rng, frame, inf_probability=0.08)
            g = random_simple(rng, facade, coeff_lo=-6, coeff_hi=6)
            s = frame.congruences[rng.randrange(len(frame.congruences))]
            expected = _integral(g, mu, s)
            check(_integral(to_cut_function(g), mu, s) == expected,
                  "general integral deviates from the simple one")
            count += 1
        mu_pos = random_measure(rng, frame, inf_probability=0.0)
        while mu_pos.value(frame.top) == 0:
            mu_pos = random_measure(rng, frame)
        top, finite = cf.constant(POS_INF, facade), to_cut_function(g)
        check(integrate_general(top, mu_pos) == POS_INF,
              "the constant inf must integrate to inf over positive measure")
        check(cf.leq(finite, top) and not cf.leq(top, finite),
              "the constant inf must lie strictly above a finite function")
        # 0 * inf = 0, under a measure that takes no draw, so no other case moves
        atoms = frame.atoms()
        mu_null = Measure(frame, [Fraction(0)] + [Fraction(1)] * (len(atoms) - 1))
        null = next(a for a in atoms if mu_null.value(a) == 0)
        check(integrate_general(top, mu_null, null) == 0
              and integrate_general(top, mu_null) == POS_INF,
              "the constant inf must integrate to 0 over a null atom and to inf over L")
    return f"{count} simple integrands agree; constant inf handled"


# -- runner ---------------------------------------------------------------------------------------------------


class CriterionResult(NamedTuple):
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
