"""Triple enumeration and closure hypergraphs against double-loop oracles."""

import random
import tracemalloc

import pytest

from exporamsey import (
    CapacityError,
    Caps,
    DomainError,
    PowerForm,
    enumerate_triples,
    evaluate,
    exp_closure,
    normalize,
    sub_hypergraph,
    triples_within,
)
from exporamsey import triples
from exporamsey.triples import (
    ExpTriple,
    check_triple_bound,
    hypergraph_from_record,
    hypergraph_record,
    iter_int_triples,
)

from oracles import canonical_pair, closure_edges_oracle, perfect_power_oracle, triples_oracle


def as_ints(triples):
    return [(evaluate(t.a), evaluate(t.b), evaluate(t.c)) for t in triples]


def test_enumerate_examples():
    assert enumerate_triples(3) == []
    assert as_ints(enumerate_triples(4)) == [(2, 2, 4)]
    assert as_ints(enumerate_triples(16)) == [
        (2, 2, 4), (2, 3, 8), (3, 2, 9), (2, 4, 16), (4, 2, 16),
    ]


def test_enumerate_against_oracle():
    got = set(iter_int_triples(10 ** 4))
    assert got == triples_oracle(10 ** 4)
    assert len(list(iter_int_triples(10 ** 4))) == 145  # pinned from the oracle


def test_enumerate_sorted_and_valid():
    triples = enumerate_triples(5000)
    ints = as_ints(triples)
    assert ints == sorted(ints, key=lambda t: (t[2], t[0], t[1]))
    for a, b, c in ints:
        assert a ** b == c
        assert a >= 2 and b >= 2


def test_enumerate_forms_match_oracle():
    # the sieve's forms of a, b and c = a**b against brute-force canonical pairs
    n = 10 ** 7
    expected = sorted(triples_oracle(n), key=lambda t: (t[2], t[0], t[1]))
    got = enumerate_triples(n)
    assert len(got) == len(expected)
    for t, (a, b, c) in zip(got, expected):
        assert (t.a.root, t.a.exponent) == canonical_pair(a, 1)
        assert (t.b.root, t.b.exponent) == canonical_pair(b, 1)
        assert (t.c.root, t.c.exponent) == canonical_pair(a, b)
        assert evaluate(t.c) == c


def test_triple_bound_refused_at_once():
    limit = triples._MAX_TRIPLE_BASE
    over = (limit + 1) ** 2  # the smallest bound whose square root passes the limit
    check_triple_bound(10 ** 12)
    check_triple_bound(over - 1)
    calls = [
        lambda: enumerate_triples(over),
        lambda: next(iter_int_triples(over)),
        lambda: check_triple_bound(over),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=f"over the limit {limit}"):
                call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024  # enumerating would hold millions of tuples
    with pytest.raises(CapacityError):
        enumerate_triples(10 ** 20)
    with pytest.raises(DomainError):
        check_triple_bound(-1)
    with pytest.raises(CapacityError, match="value_bit_cap"):
        check_triple_bound(1 << 70, Caps(value_bit_cap=64))


def test_derived_forms_are_canonical():
    derived = [v for h in (exp_closure({2, 3, 5}, 2), exp_closure({6, 7}, 3)) for v in h.vertices]
    derived += [f for t in enumerate_triples(10 ** 6) for f in (t.a, t.b, t.c)]
    assert all(perfect_power_oracle(r) is None for r in {f.root for f in derived})
    for f in derived:
        checked = PowerForm(f.root, f.exponent)
        assert f == checked and hash(f) == hash(checked)


def test_exp_triple_validation():
    with pytest.raises(DomainError):
        ExpTriple(normalize(2), normalize(2), normalize(8))
    t = ExpTriple(normalize(2), normalize(3), normalize(8))
    assert evaluate(t.c) == 8


def test_triples_within_examples():
    forms = {normalize(v) for v in (2, 3, 8)}
    assert as_ints(triples_within(forms)) == [(2, 3, 8)]
    assert triples_within({normalize(2)}) == []
    forms2 = {normalize(v) for v in (2, 4, 16)}
    assert as_ints(triples_within(forms2)) == [(2, 2, 4), (2, 4, 16), (4, 2, 16)]


def test_triples_within_symbolic_b_skipped():
    sym = PowerForm(2, 5000)  # not evaluable, cannot act as an exponent
    forms = {normalize(2), normalize(4), sym}
    got = triples_within(forms)
    assert as_ints(got) == [(2, 2, 4)]


def test_closure_golden_depth1():
    h = exp_closure({2}, 1)
    assert [evaluate(v) for v in h.vertices] == [2, 4]
    assert h.edges == ((0, 0, 1),)


def test_closure_golden_depth2():
    h = exp_closure({2}, 2)
    assert [evaluate(v) for v in h.vertices] == [2, 4, 16, 256]
    want = [(2, 2, 4), (2, 4, 16), (4, 2, 16), (4, 4, 256), (16, 2, 256)]
    got = [
        (evaluate(h.vertices[a]), evaluate(h.vertices[b]), evaluate(h.vertices[c]))
        for a, b, c in h.edges
    ]
    assert got == want


def test_closure_depth0_and_validation():
    h = exp_closure({3}, 0)
    assert [evaluate(v) for v in h.vertices] == [3]
    assert h.edges == ()
    with pytest.raises(DomainError):
        exp_closure(set(), 1)
    with pytest.raises(DomainError):
        exp_closure({1}, 1)
    with pytest.raises(DomainError):
        exp_closure({2}, -1)
    with pytest.raises(CapacityError):
        exp_closure({2}, 9)


def test_closure_monotone_in_depth():
    for seeds in ({2}, {3}, {2, 3}):
        prev = set()
        for depth in range(0, 4):
            h = exp_closure(seeds, depth)
            verts = set(h.vertices)
            assert prev <= verts
            prev = verts


def test_triples_within_matches_oracle_off_closure():
    h = exp_closure({2, 3}, 2)
    subset = h.vertices[::2]  # ascending, every other vertex
    assert {normalize(2), normalize(4)} <= set(subset)
    assert normalize(2 ** 4) not in subset  # so the subset is not a closure
    index = {v: i for i, v in enumerate(subset)}
    got = [(index[t.a], index[t.b], index[t.c]) for t in triples_within(set(subset))]
    want = closure_edges_oracle([(v.root, v.exponent) for v in subset])
    assert got and got == want
    assert len(got) < len(triples_within(h.vertices))


@pytest.mark.parametrize("seeds, depth, caps", [
    ({2, 3, 5}, 2, Caps()),
    ({5, 6}, 3, Caps(vertex_budget=200)),
    ({2}, 4, Caps()),
    ({2, 3}, 3, Caps()),
    ({3, 9}, 2, Caps()),
    ({2}, 3, Caps(value_bit_cap=64)),
    ({2}, 3, Caps()),
    ({3}, 2, Caps()),
    ({2, 3}, 2, Caps()),
])
def test_closure_edges_match_oracle(seeds, depth, caps):
    h = exp_closure(seeds, depth, caps)
    pairs = [(v.root, v.exponent) for v in h.vertices]
    assert list(h.edges) == closure_edges_oracle(pairs, caps.value_bit_cap)


def test_closure_vertex_budget_truncation():
    caps = Caps(vertex_budget=3)
    h = exp_closure({2}, 2, caps)
    assert len(h.vertices) == 3
    assert h.meta.truncated_count > 0
    # smallest values survive
    assert [evaluate(v) for v in h.vertices] == [2, 4, 16]


def test_closure_exponent_cap_drops():
    caps = Caps(exp_bit_cap=3)  # exponent 8 (4 bits) gets dropped
    h = exp_closure({2}, 2, caps)
    assert h.meta.dropped_count > 0
    assert all(v.exponent.bit_length() <= 3 for v in h.vertices)
    assert [evaluate(v) for v in h.vertices] == [2, 4, 16]


def test_sub_hypergraph():
    h = exp_closure({2}, 2)
    sub = sub_hypergraph(h, [0, 1, 2])  # 2, 4, 16
    assert [evaluate(v) for v in sub.vertices] == [2, 4, 16]
    assert set(sub.edges) == {(0, 0, 1), (0, 1, 2), (1, 0, 2)}
    with pytest.raises(DomainError):
        sub_hypergraph(h, [99])


def test_hypergraph_record_roundtrip():
    h = exp_closure({2, 3}, 2)
    rec = hypergraph_record(h)
    back = hypergraph_from_record(rec)
    assert back.vertices == h.vertices
    assert back.edges == h.edges
    bad = dict(rec, edges=[[0, 0, 0]])
    with pytest.raises(DomainError):
        hypergraph_from_record(bad)
    verts = rec["vertices"]
    for bad_verts in (verts[::-1], verts[:2] + verts[1:]):
        with pytest.raises(DomainError, match="distinct and ascending"):
            hypergraph_from_record(dict(rec, vertices=bad_verts, edges=[]))


def test_closure_random_subsets_still_valid():
    rng = random.Random(37)
    h = exp_closure({2, 3}, 2)
    for _ in range(20):
        k = rng.randrange(1, len(h.vertices) + 1)
        sub = sub_hypergraph(h, rng.sample(range(len(h.vertices)), k))
        for e in sub.edges:
            sub.edge_forms(e)  # validates the triple relation
