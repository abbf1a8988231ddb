from itertools import product

import pytest

from locint.congruence import (
    Congruence,
    congruence_join,
    congruence_meet,
    delta,
    nabla,
    open_closed,
    principal_congruence,
    quotient,
)
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
    assert principal_congruence(c3, "0", "m").blocks() == (("0", "m"), ("1",))
    assert principal_congruence(c3, "m", "m") == Congruence.equality(c3)
    assert principal_congruence(b4, "0", "1") == Congruence.all_pairs(b4)


def test_open_closed_examples(c3, b4):
    d, n = open_closed(c3, "m")
    assert d.blocks() == (("0",), ("m", "1"))
    assert n.blocks() == (("0", "m"), ("1",))
    d0, n0 = open_closed(c3, "0")
    assert d0 == Congruence.all_pairs(c3)
    assert n0 == Congruence.equality(c3)
    assert delta(b4, "x") == nabla(b4, "y")


def test_open_closed_are_complements(c3, b4, b8):
    for lat in (c3, b4, b8):
        frame = lat.congruence_frame()
        for a in lat.elements:
            d, n = open_closed(lat, a)
            assert congruence_meet(d, n) == Congruence.equality(lat)
            assert congruence_join(d, n) == Congruence.all_pairs(lat)
            assert frame.complement(n) == d


def test_congruence_complement_examples(c3):
    frame = c3.congruence_frame()
    assert frame.complement(Congruence.equality(c3)) == Congruence.all_pairs(c3)
    d, n = open_closed(c3, "m")
    assert frame.complement(n) == d


def test_nabla_is_an_embedding(b8, c3):
    for lat in (b8, c3):
        for a in lat.elements:
            for b in lat.elements:
                assert nabla(lat, lat.meet(a, b)) == congruence_meet(nabla(lat, a), nabla(lat, b))
                assert nabla(lat, lat.join(a, b)) == congruence_join(nabla(lat, a), nabla(lat, b))
                if a != b:
                    assert nabla(lat, a) != nabla(lat, b)


def test_delta_reverses_order(b8):
    for a in b8.elements:
        for b in b8.elements:
            if b8.leq(a, b):
                assert delta(b8, b).refines(delta(b8, a))


def test_frame_is_boolean_at_this_scale(c3, b4, b8):
    for lat in (c3, b4, b8):
        assert lat.congruence_frame().as_lattice().is_boolean()


def test_quotient_examples(c3):
    _, n = open_closed(c3, "m")
    q = quotient(c3, n)
    assert len(q.elements) == 2
    assert q.bottom == "{0,m}" and q.top == "1"
    q_eq = quotient(c3, Congruence.equality(c3))
    assert len(q_eq.elements) == 3
    q_all = quotient(c3, Congruence.all_pairs(c3))
    assert len(q_all.elements) == 1


def test_quotient_surjection_preserves_operations(b8):
    theta = nabla(b8, "x")
    q = quotient(b8, theta)

    def pi(a):
        from locint.congruence import block_name
        return block_name(theta.block_containing(a))

    for a in b8.elements:
        for b in b8.elements:
            assert pi(b8.meet(a, b)) == q.meet(pi(a), pi(b))
            assert pi(b8.join(a, b)) == q.join(pi(a), pi(b))


def test_sublocale_view_order_and_refs(b4):
    view = b4.congruence_frame().view()
    assert view.ref_name(view.top) == "L"
    assert view.ref_name(view.bottom) == "void"
    ox = view.resolve_ref("open:x")
    cy = view.resolve_ref("closed:y")
    assert ox == cy  # delta(x) = nabla(y) in a Boolean algebra
    assert view.leq(view.bottom, ox) and view.leq(ox, view.top)
    assert view.meet(ox, view.resolve_ref("open:y")) == view.bottom
    assert view.join(ox, view.resolve_ref("open:y")) == view.top
    with pytest.raises(MalformedDocument):
        view.resolve_ref("nonsense")
    with pytest.raises(MalformedDocument):
        view.resolve_ref({"blocks": [["0", "x"], ["y"], ["1"]]})  # not a congruence


def test_explicit_partition_refs(b4):
    view = b4.congruence_frame().view()
    theta = view.resolve_ref({"blocks": [["0", "x"], ["y", "1"]]})
    assert theta == delta(b4, "y")
    assert view.resolve_ref("blocks:0,x|y,1") == theta


def test_validate_congruence_rejects_non_congruences(b4):
    bad = Congruence.from_blocks(b4, [["0", "x"], ["y"], ["1"]])
    with pytest.raises(MalformedDocument):
        bad.validate_congruence()


def test_every_congruence_is_complemented_in_frame(c3, b4, b8):
    for lat in (c3, b4, b8):
        frame = lat.congruence_frame()
        for theta in frame.congruences:
            comp = frame.complement(theta)
            assert congruence_meet(theta, comp) == Congruence.equality(lat)
            assert congruence_join(theta, comp) == Congruence.all_pairs(lat)


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
        view = lat.congruence_frame().view()
        for s in view.sublocales:
            assert view.resolve_ref(view.ref_name(s)) == s
    c4 = chain_lattice(["0", "a", "b", "1"])
    view = c4.congruence_frame().view()
    middle = Congruence.from_blocks(c4, [["0"], ["a", "b"], ["1"]])
    assert view.ref_name(middle) == "blocks:0|a,b|1"
    assert view.resolve_ref("blocks:0|a,b|1") == middle
