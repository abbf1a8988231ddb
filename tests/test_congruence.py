import re
from itertools import product

import pytest

from _oracle import all_pairs, equality_relation, refines
from locint.congruence import Congruence
from locint.errors import MalformedDocument


def brute_force_congruences(lat):
    """Independent oracle: enumerate every partition of the elements and
    keep those compatible with all binary meets and joins."""
    els = lat.elements
    found = set()

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] + [first]] + part[i + 1:]
            yield [[first]] + part

    for blocks in partitions(list(els)):
        block_of = {}
        for i, block in enumerate(blocks):
            for e in block:
                block_of[e] = i
        ok = True
        for a, b in product(els, els):
            if block_of[a] != block_of[b]:
                continue
            for z in els:
                if block_of[lat.meet(a, z)] != block_of[lat.meet(b, z)]:
                    ok = False
                    break
                if block_of[lat.join(a, z)] != block_of[lat.join(b, z)]:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(tuple(sorted(tuple(sorted(lat.index(e) for e in blk)) for blk in blocks)))
    return found


def frame_as_partition_set(lat):
    out = set()
    for c in lat.congruence_frame().congruences:
        out.add(tuple(sorted(tuple(sorted(lat.index(e) for e in blk)) for blk in c.blocks())))
    return out


def test_enumeration_matches_brute_force(c3, b4, b8):
    for lat in (c3, b4, b8):
        assert frame_as_partition_set(lat) == brute_force_congruences(lat)


def test_congruence_counts(c3, b4, b8):
    assert c3.congruence_frame().size == 4
    assert b4.congruence_frame().size == 4
    assert b8.congruence_frame().size == 8


def test_principal_congruence_examples(c3, b4):
    # theta(a, b) = nabla(a \/ b) /\ delta(a /\ b) in C(L), a join in S(L)
    def principal(lat, a, b):
        frame = lat.congruence_frame()
        return frame.join(frame.closed_sublocale(lat.join(a, b)),
                          frame.open_sublocale(lat.meet(a, b)))

    assert principal(c3, "0", "m").blocks() == (("0", "m"), ("1",))
    assert principal(c3, "m", "m") == equality_relation(c3)
    assert principal(b4, "0", "1") == all_pairs(b4)
    assert principal(b4, "x", "y") == all_pairs(b4)


def test_open_closed_examples(c3, b4):
    frame = c3.congruence_frame()
    d, n = frame.open_sublocale("m"), frame.closed_sublocale("m")
    assert d.blocks() == (("0",), ("m", "1"))
    assert n.blocks() == (("0", "m"), ("1",))
    assert frame.open_sublocale("0") == all_pairs(c3) == frame.bottom
    assert frame.closed_sublocale("0") == equality_relation(c3) == frame.top
    frame = b4.congruence_frame()
    assert frame.open_sublocale("x") == frame.closed_sublocale("y")


def test_open_closed_are_complements(c3, b4, b8):
    for lat in (c3, b4, b8):
        frame = lat.congruence_frame()
        facade = frame.as_lattice()
        for a in lat.elements:
            d, n = frame.open_sublocale(a), frame.closed_sublocale(a)
            assert frame.join(d, n) == frame.top == equality_relation(lat)
            assert frame.meet(d, n) == frame.bottom == all_pairs(lat)
            assert frame.complement(n) == d
            assert facade.complement(n.partition_name()) == d.partition_name()


def test_congruence_complement_examples(c3):
    frame = c3.congruence_frame()
    assert frame.complement(equality_relation(c3)) == all_pairs(c3)
    assert frame.complement(frame.closed_sublocale("m")) == frame.open_sublocale("m")


def test_nabla_is_an_embedding(b8, c3):
    for lat in (b8, c3):
        frame = lat.congruence_frame()
        facade = frame.as_lattice()
        for a in lat.elements:
            for b in lat.elements:
                na, nb = frame.closed_sublocale(a), frame.closed_sublocale(b)
                nab = frame.closed_sublocale(lat.meet(a, b))
                assert nab == frame.join(na, nb)
                assert facade.meet(na.partition_name(), nb.partition_name()) == nab.partition_name()
                assert frame.closed_sublocale(lat.join(a, b)) == frame.meet(na, nb)
                if a != b:
                    assert na != nb


def test_delta_reverses_order(b8):
    frame = b8.congruence_frame()
    for a in b8.elements:
        for b in b8.elements:
            if b8.leq(a, b):
                assert refines(frame.open_sublocale(b), frame.open_sublocale(a))


def test_frame_is_boolean_at_this_scale(c3, b4, b8):
    for lat in (c3, b4, b8):
        assert lat.congruence_frame().as_lattice().is_boolean()


def test_quotient_examples(c3):
    # the quotient L/theta has one element per block
    frame = c3.congruence_frame()
    n = frame.closed_sublocale("m")
    assert n.n_blocks == 2
    assert n.blocks()[n.block_of[c3.index("0")]] == ("0", "m")
    assert n.blocks()[n.block_of[c3.index("1")]] == ("1",)
    assert frame.top.n_blocks == 3
    assert frame.bottom.n_blocks == 1


def test_quotient_surjection_preserves_operations(b8):
    # x |-> J(x) & keep is the projection onto L/theta: it separates
    # exactly the blocks and preserves meets and joins
    theta = b8.congruence_frame().closed_sublocale("x")

    def pi(a):
        return b8.jmask(a) & theta.keep

    for a in b8.elements:
        for b in b8.elements:
            same = theta.block_of[b8.index(a)] == theta.block_of[b8.index(b)]
            assert same == (pi(a) == pi(b))
            assert pi(b8.meet(a, b)) == pi(a) & pi(b)
            assert pi(b8.join(a, b)) == pi(a) | pi(b)


def test_sublocale_view_order_and_refs(b4):
    frame = b4.congruence_frame()
    assert frame.ref_name(frame.top) == "L"
    assert frame.ref_name(frame.bottom) == "void"
    ox = frame.resolve_ref("open:x")
    cy = frame.resolve_ref("closed:y")
    assert ox == cy  # delta(x) = nabla(y) in a Boolean algebra
    assert frame.leq(frame.bottom, ox) and frame.leq(ox, frame.top)
    assert frame.meet(ox, frame.resolve_ref("open:y")) == frame.bottom
    assert frame.join(ox, frame.resolve_ref("open:y")) == frame.top
    with pytest.raises(MalformedDocument):
        frame.resolve_ref("nonsense")
    with pytest.raises(MalformedDocument):
        frame.resolve_ref({"blocks": [["0", "x"], ["y"], ["1"]]})  # not a congruence


def test_explicit_partition_refs(b4):
    frame = b4.congruence_frame()
    theta = frame.resolve_ref({"blocks": [["0", "x"], ["y", "1"]]})
    assert theta == frame.open_sublocale("y")
    assert frame.resolve_ref("blocks:0,x|y,1") == theta


@pytest.mark.parametrize("ref", [{"blocks": [["0", "x"], ["y", "1"]], "zzz": 1},
                                 {"blocks": [["0", "x"], ["y", "1"]], "kind": "blocks"},
                                 {"zzz": [["0", "x"], ["y", "1"]]}, {}])
def test_dict_refs_hold_blocks_and_nothing_else(b4, ref):
    frame = b4.congruence_frame()
    with pytest.raises(MalformedDocument, match=r"^bad sublocale reference: "):
        frame.resolve_ref(ref)


@pytest.mark.parametrize("ref, message", [
    (" L", "unknown sublocale reference ' L'"),
    ("void ", "unknown sublocale reference 'void '"),
    (" open:x", "unknown sublocale reference ' open:x'"),
    ("closed:x ", "unknown lattice element 'x '"),
    ("blocks:0,x|y,1 ", "unknown lattice element '1 '"),
])
def test_refs_take_no_surrounding_whitespace(b4, ref, message):
    frame = b4.congruence_frame()
    with pytest.raises(MalformedDocument) as caught:
        frame.resolve_ref(ref)
    assert str(caught.value) == message


def test_validate_congruence_rejects_non_congruences(b4):
    # a partition enters only through from_blocks, which rejects it unless
    # it is a congruence
    with pytest.raises(MalformedDocument,
                       match=r"^\{0,x\|y\|1\} is not a congruence of this lattice$"):
        Congruence.from_blocks(b4, [["0", "x"], ["y"], ["1"]])


def test_every_congruence_is_complemented_in_frame(c3, b4, b8):
    for lat in (c3, b4, b8):
        frame = lat.congruence_frame()
        facade = frame.as_lattice()
        for theta in frame.congruences:
            comp = frame.complement(theta)
            assert frame.join(theta, comp) == frame.top == equality_relation(lat)
            assert frame.meet(theta, comp) == frame.bottom == all_pairs(lat)
            assert facade.complement(theta.partition_name()) == comp.partition_name()


def test_enumeration_size_guard():
    # an n-chain has 2^(n-1) congruences: the 9-chain is at the cap, the
    # 10-chain just beyond it and the 12-chain far beyond desk scale
    from locint.errors import SizeLimitExceeded
    from locint.lattice import chain_lattice
    assert chain_lattice([f"e{i}" for i in range(9)]).congruence_frame().size == 256
    for n in (10, 12):
        long_chain = chain_lattice([f"e{i}" for i in range(n)])
        with pytest.raises(SizeLimitExceeded, match="more than 256 congruences"):
            long_chain.congruence_frame()


def test_ref_names_round_trip_even_without_labels():
    # on the 4-chain, collapsing only the middle interval gives a sublocale
    # that is neither open nor closed; its ref falls back to the blocks form
    from locint.corpus import divisor_lattice
    from locint.lattice import chain_lattice
    for lat in (chain_lattice(["0", "a", "b", "1"]), divisor_lattice(60)):
        frame = lat.congruence_frame()
        for s in frame.congruences:
            assert frame.resolve_ref(frame.ref_name(s)) == s
    c4 = chain_lattice(["0", "a", "b", "1"])
    frame = c4.congruence_frame()
    middle = Congruence.from_blocks(c4, [["0"], ["a", "b"], ["1"]])
    assert frame.ref_name(middle) == "blocks:0|a,b|1"
    assert frame.resolve_ref("blocks:0|a,b|1") == middle


def test_threads_racing_on_a_fresh_lattice_agree():
    # the frame, its facade and its point bits are built on first use; eight
    # threads start on a lattice that has built none of them
    import sys
    from fractions import Fraction
    from threading import Barrier, Thread

    from locint.corpus import divisor_lattice
    from locint.integrate import integrate_simple
    from locint.measure import validate_measure
    from locint.simple import canonicalize

    lat = divisor_lattice(60)
    barrier = Barrier(8)
    results = [None] * 8
    errors = []

    def work(k):
        try:
            barrier.wait(timeout=60)
            frame = lat.congruence_frame()
            facade = frame.as_lattice()
            mu = validate_measure(frame, {s: Fraction(bin(s.keep).count("1"))
                                          for s in frame.congruences})
            g = canonicalize(facade, [(Fraction(2), frame.closed_sublocale("4").partition_name()),
                                      (Fraction(-1, 3), frame.open_sublocale("5").partition_name())])
            results[k] = (facade.elements, [frame.ref_name(s) for s in frame.congruences],
                          [v for _, v in mu.items()], g.terms, integrate_simple(g, mu))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [Thread(target=work, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert all(r == results[0] for r in results)


def test_every_operand_of_another_lattice_is_rejected(b4, b8):
    """A sublocale of B8 on the B4 frame: every operation and every reader
    raises the one message, whichever operand is foreign."""
    from fractions import Fraction

    from locint.integrate import integrate_simple
    from locint.measure import validate_measure
    from locint.simple import constant_simple

    frame, other = b4.congruence_frame(), b8.congruence_frame()
    top = frame.top
    mu = validate_measure(frame, {s: Fraction(bin(s.keep).count("1")) for s in frame.congruences})
    g = constant_simple(Fraction(1), frame.as_lattice())
    for foreign in (other._sublocale(3), other.top, other.bottom):
        table = dict(zip(frame.congruences, [v for _, v in mu.items()]))
        table[foreign] = Fraction(-1)  # the sublocale is checked before its value
        calls = [lambda: frame.leq(top, foreign), lambda: frame.leq(foreign, top),
                 lambda: frame.meet(top, foreign), lambda: frame.meet(foreign, top),
                 lambda: frame.join(top, foreign), lambda: frame.join(foreign, top),
                 lambda: frame.complement(foreign), lambda: frame.ref_name(foreign),
                 lambda: frame.labels_of(foreign), lambda: frame.element_of(foreign),
                 lambda: mu.value(foreign), lambda: integrate_simple(g, mu, over=foreign),
                 lambda: validate_measure(frame, table)]
        message = f"^{re.escape(foreign.partition_name())} is not a congruence of this lattice$"
        for call in calls:
            with pytest.raises(MalformedDocument, match=message):
                call()


def _mask_lattices():
    from random import Random

    from _oracle import downset_lattice
    from locint.corpus import corpus_lattices

    out = dict(corpus_lattices())
    rng = Random("sublocale-masks")
    for points in range(1, 9):
        out[f"downset{points}"] = downset_lattice(rng, points)
    return out


MASK_LATTICES = _mask_lattices()


@pytest.mark.parametrize("name", sorted(MASK_LATTICES))
def test_a_sublocale_built_from_its_mask_is_the_listed_one(name):
    """For every keep-mask, the sublocale the frame builds from the lattice
    alone is the frame's listed congruence, partition and name included,
    and ``element_of`` inverts ``congruence_of_element``."""
    frame = MASK_LATTICES[name].congruence_frame()
    assert sorted(theta.keep for theta in frame.congruences) == list(range(frame.size))
    for theta in frame.congruences:
        built = frame._sublocale(theta.keep)
        assert built == theta and built is not theta
        assert built.block_of == theta.block_of
        assert built.partition_name() == theta.partition_name()
        assert frame.element_of(theta) == theta.partition_name()
        assert frame.element_of(built) == theta.partition_name()
        assert frame.congruence_of_element(frame.element_of(theta)) == theta


@pytest.mark.parametrize("name", sorted(MASK_LATTICES))
def test_printed_refs_resolve_back(name):
    """Every sublocale's printed ref, the blocks form included, resolves to
    that sublocale; a lattice document may not name an element with a
    separator of the blocks form."""
    frame = MASK_LATTICES[name].congruence_frame()
    for s in frame.congruences:
        assert frame.resolve_ref(frame.ref_name(s)) == s
