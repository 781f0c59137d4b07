"""Triple enumeration and closure hypergraphs against double-loop oracles."""

import json
import random
import time
import tracemalloc

import pytest

from exporamsey import (
    LT,
    CapacityError,
    Caps,
    Coloring,
    DomainError,
    PowerForm,
    TripleHypergraph,
    compare,
    enumerate_triples,
    evaluate,
    exp_closure,
    export_dimacs,
    normalize,
    sub_hypergraph,
    triples_within,
    try_evaluate,
)
from exporamsey import tower as tower_mod
from exporamsey import triples
from exporamsey.cli import main
from exporamsey.coloring import coloring_from_record, coloring_record
from exporamsey.tower import powerform_record, vertex_label
from exporamsey.triples import (
    ExpTriple,
    check_triple_bound,
    hypergraph_from_record,
    hypergraph_record,
    iter_int_triples,
    vertex_labels,
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


def test_unchecked_builds_match_checked_ones():
    from dataclasses import FrozenInstanceError

    from exporamsey.tower import _canonical

    for r, e in [(2, 1), (2, 36), (3, 4), (10, 1), (6, 1 << 70)]:
        form = _canonical(r, e)
        assert form == PowerForm(r, e) and hash(form) == hash(PowerForm(r, e))
        assert repr(form) == repr(PowerForm(r, e))
        with pytest.raises(FrozenInstanceError):
            form.root = 5
    a, b, c = PowerForm(2, 1), PowerForm(3, 1), PowerForm(2, 3)
    t = triples._triple(a, b, c)
    assert t == ExpTriple(a, b, c) and hash(t) == hash(ExpTriple(a, b, c))
    assert (t.a, t.b, t.c) == (a, b, c) and str(t) == "(2, 3, 2^3)"
    for name in ("a", "b", "c"):
        with pytest.raises(FrozenInstanceError):
            setattr(t, name, a)


def test_exp_triple_validation():
    with pytest.raises(DomainError):
        ExpTriple(normalize(2), normalize(2), normalize(8))
    t = ExpTriple(normalize(2), normalize(3), normalize(8))
    assert evaluate(t.c) == 8
    # value(b) would have 10**9 bits, more than c's exponent 5 has, so it is never built
    with pytest.raises(DomainError) as wide:
        ExpTriple(normalize(2), PowerForm(2, 10 ** 9), PowerForm(2, 5))
    assert str(wide.value) == "not an exponential triple: (2, 2^1000000000, 2^5)"


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


def test_hypergraph_record_vertices_bounded_by_caps(monkeypatch):
    rec = hypergraph_record(exp_closure({2, 3}, 2))
    # a closure record written under the same caps reads back
    assert hypergraph_from_record(rec).vertices == exp_closure({2, 3}, 2).vertices
    # refused before any perfect-power test or comparison
    def unreachable(*args):
        raise AssertionError("a vertex past the caps reached a later check")

    monkeypatch.setattr(tower_mod, "perfect_power", unreachable)
    monkeypatch.setattr(triples, "compare", unreachable)
    wide_root = dict(rec, vertices=[{"root": str((1 << 12000) + 1), "exp": "1"}], edges=[])
    wide_exp = dict(rec, vertices=[{"root": 2, "exp": 1 << 65536}], edges=[])
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="root of 12001 bits exceeds value_bit_cap 4096"):
        hypergraph_from_record(wide_root)
    with pytest.raises(CapacityError, match="exponent of 65537 bits exceeds exp_bit_cap 65536"):
        hypergraph_from_record(wide_exp)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(CapacityError, match="exp_bit_cap 4"):
        hypergraph_from_record(rec, Caps(exp_bit_cap=4))
    # a malformed record is still a domain error, whatever its vertices
    with pytest.raises(DomainError, match="malformed hypergraph record"):
        hypergraph_from_record(dict(wide_root, edges=[["x", 0, 0]]))


def test_closure_random_subsets_still_valid():
    rng = random.Random(37)
    h = exp_closure({2, 3}, 2)
    for _ in range(20):
        k = rng.randrange(1, len(h.vertices) + 1)
        sub = sub_hypergraph(h, rng.sample(range(len(h.vertices)), k))
        for a, b, c in sub.edges:
            ExpTriple(sub.vertices[a], sub.vertices[b], sub.vertices[c])  # checks the relation


def _assert_table_agrees(h, caps):
    """Labels and vertex records read off h's value table match the per-vertex writers."""
    labels = [vertex_label(v, caps) for v in h.vertices]
    assert list(vertex_labels(h, caps)) == labels
    assert hypergraph_record(h, caps)["vertices"] == [powerform_record(v, caps)
                                                      for v in h.vertices]
    col = Coloring(2, tuple(i % 2 for i in range(len(h.vertices))))
    rec = coloring_record(h, col, caps)
    assert rec["colors"] == dict(zip(labels, col.colors))
    assert coloring_from_record(h, rec, caps) == col
    comments = [line for line in export_dimacs(h, 2, caps).splitlines() if line.startswith("c v ")]
    assert comments == [f"c v {i} {label} var {i + 1}" for i, label in enumerate(labels)]


@pytest.mark.parametrize("seeds, depth, caps", [
    ({6, 7}, 3, Caps()),
    ({8, 9}, 3, Caps(vertex_budget=200)),  # cut in the last round only
    ({2, 3}, 3, Caps(vertex_budget=10)),  # cut in rounds 2 and 3
    ({2, 1000}, 3, Caps(vertex_budget=2, exp_bit_cap=2)),  # cut in round 1 only
    ({2, 3}, 2, Caps(value_bit_cap=8)),  # wider values are labelled root^exp
], ids=["plain", "cut_last", "cut_2_and_3", "cut_first", "value_bit_cap_8"])
def test_value_table_matches_per_vertex_writers(seeds, depth, caps):
    h = exp_closure(seeds, depth, caps)
    assert h.values == tuple(try_evaluate(v, caps) for v in h.vertices)
    assert h.values_bit_cap == caps.value_bit_cap
    assert all(compare(x, y) == LT for x, y in zip(h.vertices, h.vertices[1:]))
    pairs = [(v.root, v.exponent) for v in h.vertices]
    assert list(h.edges) == closure_edges_oracle(pairs, caps.value_bit_cap)
    if caps.value_bit_cap == 8:
        assert "2^16" in list(vertex_labels(h, caps))
    sub = sub_hypergraph(h, range(0, len(h.vertices), 3))
    back = hypergraph_from_record(hypergraph_record(h, caps), caps)
    bare = TripleHypergraph(h.vertices, h.edges, h.meta)  # no table: computed on use
    assert back == h and bare == h and bare.values is None
    for g in (h, sub, back, bare):
        _assert_table_agrees(g, caps)
        # a caller with another value_bit_cap gets that cap's values
        for other in (Caps(value_bit_cap=8), Caps(value_bit_cap=64), Caps()):
            _assert_table_agrees(g, other)


def test_truncated_closure_vertices():
    # a cut in round 1 only: round 2 adds nothing, and round 1's sorted list stands
    h = exp_closure({2, 1000}, 3, Caps(vertex_budget=2, exp_bit_cap=2))
    assert h.vertices == (PowerForm(2, 1), PowerForm(2, 2))
    assert (h.meta.truncated_count, h.meta.dropped_count) == (1, 9)
    assert h.edges == ((0, 0, 1),)
    # cuts in rounds 2 and 3: the 10 smallest of the last round's vertices
    h = exp_closure({2, 3}, 3, Caps(vertex_budget=10))
    assert [evaluate(v) for v in h.vertices] == [2, 3, 4, 8, 9, 16, 27, 64, 81, 256]


@pytest.mark.parametrize("argv", [
    ["closure", "--seeds", "6,7", "--depth", "3"],
    ["color", "export-cnf", "--seeds", "6,7", "--depth", "3", "--k", "3"],
], ids=["closure", "export_cnf"])
def test_closure_job_evaluates_each_vertex_once(monkeypatch, capsys, argv):
    calls = []
    exact = tower_mod._try_value

    def counting(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(tower_mod, "_try_value", counting)
    monkeypatch.setattr(triples, "_try_value", counting)
    assert main(argv) == 0
    # 40 evaluations in the closure rounds, then one per vertex of the 260
    assert len(calls) == 300
    if argv[0] == "closure":
        assert len(json.loads(capsys.readouterr().out)["vertices"]) == 260
