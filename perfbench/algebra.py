"""The ``algebra`` workload: a seeded mixed stream of term, ladder, integral
and bridge operations over small carriers built once during set-up.

The carriers are c3, B4-B16, the divisor lattices of 12 and 60 and the
chains of 4-6 elements, each used through its Boolean centre and through
its congruence frame C(L), plus classical powerset spaces of 1-5 points.
Their frames, facades and views are cached by the library, so after set-up
the ``simple``, ``cutfunction``, ``integrate`` and ``bridge`` layers do
nearly all the work.  (A fresh 5-point space costs about a second, nearly
all of it enumerating C(B32), so spaces are built during set-up too.)
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from locint import (
    ClassicalSimpleFunction,
    CutFunction,
    FiniteMeasurableSpace,
    FunctionSequence,
    add,
    bridge_check,
    canonicalize,
    cut_to_simple,
    decompose_trace,
    extend_measure,
    indefinite_integral,
    integrate_general,
    integrate_simple,
    join_meet,
    leq,
    limits,
    mul_nonneg,
    sf_add,
    sf_mul,
    sf_neg,
    sf_scale,
    summability,
    to_cut_function,
    validate_measure,
)
from locint.errors import NotIntegrable

from . import oracle
from .common import (
    Op,
    build,
    centre_carrier,
    check_frame,
    ext,
    frame_carrier,
    pairs_checked,
    require,
    same,
)
from .gen import (
    INF,
    chain_spec,
    divisor_spec,
    fmt,
    pointwise,
    powerset_spec,
    rational,
    subset,
    subsets,
    weight,
)

SPECS = (chain_spec(3), powerset_spec("B4", "xy"), powerset_spec("B8", "xyz"),
         powerset_spec("B16", "wxyz"), divisor_spec(12), divisor_spec(60),
         chain_spec(4), chain_spec(5), chain_spec(6))
FRAMES = {"C(" + s.name + ")": s.points for s in SPECS}
CARRIERS = {**{s.name: s.centre_points() for s in SPECS}, **FRAMES}
MEASURES_PER_FRAME = 3

# Calls that ``locint.verify.run_all`` makes directly, per op kind (seed 0;
# seed 1 differs by under 1%), and how many of them one op of the kind
# makes.  A round holds each kind in proportion to its verify calls, scaled
# so that decompose, the rarest, has one op: round(calls / per_op / 78).
VERIFY_CALLS = {
    "canonicalize": (1860, 1),
    "ring": (41520 + 33720 + 13080 + 3360, 4),  # sf_add, sf_mul, sf_scale, sf_neg
    "ladder_add": (3605, 1),
    "ladder_mul": (3000, 1),
    "ladder_order": (1976, 2),  # leq both ways
    "ladder_limits": (382, 1),
    "decompose": (78, 1),
    "integrate": (5259, 1),
    "integrate_general": (306, 1),
    "indefinite": (600, 1),
    "bridge": (1000, 1),
}
ROUND = [kind for kind, (calls, per_op) in VERIFY_CALLS.items()
         for _ in range(round(calls / per_op / 78))]
BLOCK = len(ROUND)  # a run ends on a block boundary; 513 ops


SPACES = {f"space{n}": tuple(f"p{i}" for i in range(n)) for n in range(1, 6)}


def measure_weights(seed: int):
    """Atom weights of the measures built during set-up, per frame (the
    third measure of each frame may put +inf on a point), and the point
    weights of the classical spaces."""
    rng = Random(f"algebra-measures-{seed}")
    weights = {key: [{p: weight(rng, 0.3 if m == 2 else 0.0) for p in pts}
                     for m in range(MEASURES_PER_FRAME)]
               for key, pts in FRAMES.items()}
    weights.update({key: {p: weight(rng, 0.15) for p in pts} for key, pts in SPACES.items()})
    return weights


def setup(seed: int, tr):
    """Build every carrier, its frame, facade, view and measures, and the
    classical spaces of 1-5 points with their congruence frames."""
    weights = measure_weights(seed)
    carriers = {}
    for key, pts in SPACES.items():
        with tr.span("bridge.space"):
            lam = {p: ext(w) for p, w in weights[key].items()}
            space = FiniteMeasurableSpace.powerset(pts, lam)
        with tr.span("congruence.frame"):
            space.view()
        with tr.span("bridge.extend"):  # also fills the view's lazy pair tables
            extend_measure(space)
        carriers[key] = space
    for spec in SPECS:
        lat = build(spec, tr)
        carriers[spec.name] = centre_carrier(spec, lat, tr)
        car = frame_carrier(spec, lat, tr)
        car.measures = []
        for w in weights[car.name]:
            values = {car.subs[q]: ext(oracle.nonneg_sum(dict.fromkeys(q, 1), w, q))
                      for q in car.subs}
            with tr.span("measure.validate"):
                car.measures.append((w, validate_measure(car.view, values)))
            tr.count("measure.pairs_checked", pairs_checked(len(car.points)))
        carriers[car.name] = car
    with tr.span("bench.check"):
        for spec in SPECS:
            check_frame(spec, carriers["C(" + spec.name + ")"])
    return carriers


def teardown(state):
    pass


# -- generation ----------------------------------------------------------------


def ops(seed: int):
    rng = Random(f"algebra-{seed}")
    weights = measure_weights(seed)
    i = 0
    while True:
        kinds = list(ROUND)
        rng.shuffle(kinds)
        for kind in kinds:
            data, expect = GEN[kind](rng, weights)
            yield Op(i, kind, data, expect)
            i += 1


def _pick(rng, pool):
    key = rng.choice(sorted(pool))
    return key, pool[key]


def _gen_canonicalize(rng, _):
    key, pts = _pick(rng, CARRIERS)
    terms = [(rational(rng, -6, 6) if rng.random() < 0.8 else Fraction(0), subset(rng, pts))
             for _ in range(rng.randint(2, 6))]
    return ({"carrier": key, "terms": terms},
            oracle.canonical_terms(oracle.sum_of_terms(pts, terms)))


def _gen_ring(rng, _):
    key, pts = _pick(rng, CARRIERS)
    g, h = pointwise(rng, pts), pointwise(rng, pts)
    lam = rational(rng)
    ct = oracle.canonical_terms
    return ({"carrier": key, "g": ct(g), "h": ct(h), "lam": lam},
            {"add": ct({x: g[x] + h[x] for x in pts}), "mul": ct({x: g[x] * h[x] for x in pts}),
             "scale": ct({x: lam * g[x] for x in pts}), "neg": ct({x: -h[x] for x in pts})})


def _gen_ladder_add(rng, _):
    key, pts = _pick(rng, CARRIERS)
    f, g = pointwise(rng, pts), pointwise(rng, pts)
    return ({"carrier": key, "f": oracle.canonical_terms(f), "g": oracle.canonical_terms(g)},
            oracle.ladders({x: f[x] + g[x] for x in pts}))


def _gen_ladder_mul(rng, _):
    key, pts = _pick(rng, CARRIERS)
    f, g = pointwise(rng, pts, nonneg=True), pointwise(rng, pts, nonneg=True)
    return ({"carrier": key, "f": oracle.canonical_terms(f), "g": oracle.canonical_terms(g)},
            oracle.ladders({x: f[x] * g[x] for x in pts}))


def _gen_ladder_order(rng, _):
    key, pts = _pick(rng, CARRIERS)
    f = pointwise(rng, pts)
    if rng.random() < 0.5:
        bump = pointwise(rng, pts, nonneg=True)
        g = {x: f[x] + bump[x] for x in pts}
    else:
        g = pointwise(rng, pts)
    return ({"carrier": key, "f": oracle.canonical_terms(f), "g": oracle.canonical_terms(g)},
            {"f<=g": all(f[x] <= g[x] for x in pts), "g<=f": all(g[x] <= f[x] for x in pts),
             "join": oracle.ladders({x: max(f[x], g[x]) for x in pts}),
             "meet": oracle.ladders({x: min(f[x], g[x]) for x in pts})})


def _gen_ladder_limits(rng, _):
    key, pts = _pick(rng, CARRIERS)
    prefix = [oracle.canonical_terms(pointwise(rng, pts)) for _ in range(rng.randint(1, 3))]
    tail = pointwise(rng, pts)
    # an eventually constant sequence converges to its tail
    return ({"carrier": key, "prefix": prefix, "tail": oracle.canonical_terms(tail)},
            oracle.ladders(tail))


def _gen_decompose(rng, _):
    key, pts = _pick(rng, CARRIERS)
    f = pointwise(rng, pts, nonneg=True)
    horizon = rng.randint(1, 12)
    return ({"carrier": key, "f": oracle.canonical_terms(f), "k": horizon},
            oracle.decomposition(f, horizon))


def _gen_integrate(rng, weights):
    key, pts = _pick(rng, FRAMES)
    m = rng.randrange(MEASURES_PER_FRAME)
    g = pointwise(rng, pts)
    over = subset(rng, pts) if rng.random() < 0.7 else None
    return ({"carrier": key, "measure": m, "g": oracle.canonical_terms(g), "over": over},
            oracle.integral(g, weights[key][m], frozenset(pts) if over is None else over))


def _gen_integrate_general(rng, weights):
    key, pts = _pick(rng, FRAMES)
    m = rng.randrange(MEASURES_PER_FRAME)
    f = pointwise(rng, pts)
    if rng.random() < 0.5:
        f.update({x: rng.choice((INF, -INF)) for x in pts if rng.random() < 0.3})
    over = subset(rng, pts) if rng.random() < 0.5 else None
    return ({"carrier": key, "measure": m, "ladders": oracle.ladders(f), "over": over},
            oracle.integral(f, weights[key][m], frozenset(pts) if over is None else over))


def _gen_indefinite(rng, weights):
    key, pts = _pick(rng, FRAMES)
    m = rng.randrange(MEASURES_PER_FRAME)
    g = pointwise(rng, pts, nonneg=True)
    w = weights[key][m]
    return ({"carrier": key, "measure": m, "g": oracle.canonical_terms(g)},
            {q: oracle.nonneg_sum(g, w, q) for q in subsets(pts)})


def _gen_bridge(rng, weights):
    key, pts = _pick(rng, SPACES)
    values = {p: rational(rng) for p in pts}
    over = subset(rng, pts) if rng.random() < 0.5 else None
    _, _, cls, value = oracle.integral(values, weights[key],
                                       frozenset(pts) if over is None else over)
    return ({"space": key, "values": values, "over": over}, (cls, value))


GEN = {
    "canonicalize": _gen_canonicalize,
    "ring": _gen_ring,
    "ladder_add": _gen_ladder_add,
    "ladder_mul": _gen_ladder_mul,
    "ladder_order": _gen_ladder_order,
    "ladder_limits": _gen_ladder_limits,
    "decompose": _gen_decompose,
    "integrate": _gen_integrate,
    "integrate_general": _gen_integrate_general,
    "indefinite": _gen_indefinite,
    "bridge": _gen_bridge,
}


# -- execution -----------------------------------------------------------------


def prepare(state, op):
    pass


def _simple(car, terms, tr):
    with tr.span("simple.canonicalize"):
        return canonicalize(car.lat, car.named(terms))


def _cut(car, terms, tr):
    g = _simple(car, terms, tr)
    with tr.span("simple.to_cut"):
        return g, to_cut_function(g)


def _over(car, q):
    return None if q is None else car.subs[q]


def run(state, op, tr):
    d = op.data
    kind = op.kind
    if kind == "bridge":
        space = state[d["space"]]
        with tr.span("bridge.function"):
            f = ClassicalSimpleFunction(space, d["values"])
        with tr.span("bridge.check"):
            return bridge_check(space, f, d["over"])
    car = state[d["carrier"]]
    if kind == "canonicalize":
        g = _simple(car, d["terms"], tr)
        tr.count("simple.terms_in", len(d["terms"]))
        tr.count("simple.terms_out", len(g.terms))
        return g
    if kind == "ring":
        g, h = _simple(car, d["g"], tr), _simple(car, d["h"], tr)
        out = {}
        for name, fn, args in (("add", sf_add, (g, h)), ("mul", sf_mul, (g, h)),
                               ("scale", sf_scale, (d["lam"], g)), ("neg", sf_neg, (h,))):
            with tr.span("simple.ring"):
                out[name] = fn(*args)
        return g, h, out
    if kind in ("ladder_add", "ladder_mul"):
        (g, f), (h, k) = _cut(car, d["f"], tr), _cut(car, d["g"], tr)
        if kind == "ladder_add":
            with tr.span("cutfunction.add"):
                res = add(f, k)
            candidates = len(f.breakpoints) * len(k.breakpoints)
        else:
            with tr.span("cutfunction.mul"):
                res = mul_nonneg(f, k)
            candidates = 1 + sum(1 for a in f.breakpoints for b in k.breakpoints if a * b > 0)
        tr.count("cutfunction.bp_candidates", candidates)
        tr.count("cutfunction.bp_kept", len(res.breakpoints))
        return g, h, res
    if kind == "ladder_order":
        (_, f), (_, k) = _cut(car, d["f"], tr), _cut(car, d["g"], tr)
        with tr.span("cutfunction.order"):
            return leq(f, k), leq(k, f), join_meet(f, k)
    if kind == "ladder_limits":
        prefix = tuple(_cut(car, t, tr)[1] for t in d["prefix"])
        tail = _cut(car, d["tail"], tr)[1]
        with tr.span("cutfunction.limits"):
            return limits(FunctionSequence(prefix, tail))
    if kind == "decompose":
        _, f = _cut(car, d["f"], tr)
        with tr.span("simple.decompose"):
            return decompose_trace(f, d["k"])
    w, mu = car.measures[d["measure"]]
    if kind == "integrate":
        g = _simple(car, d["g"], tr)
        with tr.span("integrate.simple"):
            try:
                value = integrate_simple(g, mu, _over(car, d["over"]))[0]
            except NotIntegrable:
                tr.count("integrate.not_integrable")
                value = None
        with tr.span("integrate.summability"):
            return value, summability(g, mu, _over(car, d["over"]))
    if kind == "integrate_general":
        bp, upper, lower = d["ladders"]
        with tr.span("cutfunction.build"):
            f = CutFunction(car.lat, bp, [car.name_of[s] for s in upper],
                            [car.name_of[s] for s in lower])
        with tr.span("integrate.general"):
            try:
                return f, integrate_general(f, mu, _over(car, d["over"]))
            except NotIntegrable:
                tr.count("integrate.not_integrable")
                return f, None
    if kind == "indefinite":
        g = _simple(car, d["g"], tr)
        with tr.span("integrate.indefinite"):
            return indefinite_integral(g, mu)
    raise ValueError(f"unknown op kind {kind!r}")


# -- checks --------------------------------------------------------------------


def _value(v):
    return None if v is None else fmt(v)


def check(state, op, out, tr):
    """Compare with the pointwise oracle, then cross-check the library's own
    independent paths (ladder vs term arithmetic, general vs simple
    integral).  Raises Mismatch."""
    d, want, kind = op.data, op.expect, op.kind
    if kind == "bridge":
        cls, value = want
        same("classical classification", out.classical.classification, cls)
        same("pointfree classification", out.localic.classification, cls)
        same("classical value", _value(out.classical_value), _value(value))
        same("pointfree value", _value(out.localic_value), _value(value))
        return
    car = state[d["carrier"]]
    if kind == "canonicalize":
        same("canonical terms", car.terms(out), want)
    elif kind == "ring":
        g, h, res = out
        for name in ("add", "mul", "scale", "neg"):
            same(f"sf_{name}", car.terms(res[name]), want[name])
    elif kind in ("ladder_add", "ladder_mul"):
        g, h, res = out
        same("ladders", car.ladders(res), want)
        term_op = sf_add if kind == "ladder_add" else sf_mul
        with tr.span("simple.ring"):
            by_terms = term_op(g, h)
        with tr.span("simple.to_cut"):
            same("ladder vs term arithmetic", res, to_cut_function(by_terms))
    elif kind == "ladder_order":
        f_le, g_le, (j, m) = out
        same("f <= g", f_le, want["f<=g"])
        same("g <= f", g_le, want["g<=f"])
        same("join", car.ladders(j), want["join"])
        same("meet", car.ladders(m), want["meet"])
    elif kind == "ladder_limits":
        lo, hi, lim = out
        same("liminf", car.ladders(lo), want)
        same("limsup", car.ladders(hi), want)
        require(lim is not None, "lim exists", lim, "tail")
    elif kind == "decompose":
        same("steps", len(out), len(want))
        for step, (k, cell, stage, residual) in zip(out, want):
            same(f"k of step {k}", step.k, k)
            same(f"a_{k}", car.set_of[step.cell], cell)
            same(f"f_{k}", car.terms(step.stage), stage)
            same(f"residual after step {k}", step.residual_sup, residual)
    elif kind == "integrate":
        value, report = out
        pos, neg, cls, expected = want
        same("integral", _value(value), _value(expected))
        same("classification", report.classification, cls)
        same("positive part", fmt(report.positive_part), fmt(pos))
        same("negative part", fmt(report.negative_part), fmt(neg))
    elif kind == "integrate_general":
        f, value = out
        same("general integral", _value(value), _value(want[3]))
        if f.is_finite() and value is not None:
            _, mu = car.measures[d["measure"]]
            with tr.span("simple.from_cut"):
                g = cut_to_simple(f)
            with tr.span("integrate.simple"):
                by_simple = integrate_simple(g, mu, _over(car, d["over"]))[0]
            same("integrate_general vs integrate_simple", value, by_simple)
    elif kind == "indefinite":
        for q, expected in want.items():
            same(f"indefinite integral on S_{sorted(q)}", fmt(out.value(car.subs[q])),
                 fmt(expected))
