"""Colorability solvers, DIMACS export, and rule-based counting."""

import itertools
import random

import pytest

from exporamsey import (
    CapacityError,
    Caps,
    Coloring,
    DomainError,
    check_coloring,
    count_mono_triples,
    enumerate_triples,
    evaluate,
    exp_closure,
    export_dimacs,
    parse_rule,
    solve_colorability,
    sub_hypergraph,
)
from exporamsey.coloring import (
    coloring_from_record,
    coloring_record,
    count_mono_triples_at,
    counts_csv_rows,
    decode_true_vars,
    solve_constraints,
)

from oracles import cnf_satisfied, first_proper_coloring, parse_dimacs, triples_oracle


def closure2():
    return exp_closure({2}, 2)  # vertices 2, 4, 16, 256


def test_check_coloring_examples():
    h = closure2()
    # {2, 256} -> 0, {4, 16} -> 1
    col = Coloring(k=2, colors=(0, 1, 1, 0))
    assert check_coloring(h, col) == []
    h1 = exp_closure({2}, 1)
    assert check_coloring(h1, Coloring(k=2, colors=(0, 0))) == [(0, 0, 1)]
    h0 = exp_closure({5}, 0)
    assert check_coloring(h0, Coloring(k=2, colors=(1,))) == []


def test_check_coloring_partial_rejected():
    h = closure2()
    with pytest.raises(DomainError):
        check_coloring(h, Coloring(k=2, colors=(0, 1)))
    with pytest.raises(DomainError):
        Coloring(k=2, colors=(0, 2))
    with pytest.raises(DomainError):
        Coloring(k=1, colors=(0,))


def test_check_uses_deduplicated_vertex_set():
    h = exp_closure({2}, 1)  # single edge (2, 2, 4)
    assert check_coloring(h, Coloring(k=2, colors=(0, 1))) == []
    assert check_coloring(h, Coloring(k=2, colors=(1, 1))) == [(0, 0, 1)]


def test_solve_examples():
    h = closure2()
    for method in ("backtracking", "exhaustive"):
        col = solve_colorability(h, 2, method)
        assert col is not None
        assert check_coloring(h, col) == []
    h1 = exp_closure({2}, 1)
    assert solve_colorability(h1, 2) is not None
    h0 = exp_closure({3}, 0)
    assert solve_colorability(h0, 2) is not None


def test_solve_budget_and_validation():
    h = closure2()
    with pytest.raises(CapacityError, match="exhaustive"):
        solve_constraints(25, [], 2, "exhaustive")  # 2^25 > 2^24
    with pytest.raises(DomainError):
        solve_colorability(h, 1)
    with pytest.raises(DomainError):
        solve_colorability(h, 2, "quantum")


def test_solver_unsat_on_fano_plane():
    # the Fano plane is the minimal non-2-colorable 3-uniform hypergraph
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    assert solve_constraints(7, fano, 2, "backtracking") is None
    assert solve_constraints(7, fano, 2, "exhaustive") is None
    # but it is 3-colorable
    assert solve_constraints(7, fano, 3, "backtracking") is not None
    assert solve_constraints(7, fano, 3, "exhaustive") is not None


def test_solver_agreement_random_subgraphs():
    rng = random.Random(41)
    universes = [exp_closure({2}, 3), exp_closure({3}, 3), exp_closure({2, 3}, 2)]
    for _ in range(40):
        h = rng.choice(universes)
        size = rng.randrange(2, min(15, len(h.vertices)) + 1)
        sub = sub_hypergraph(h, rng.sample(range(len(h.vertices)), size))
        bt = solve_constraints(len(sub.vertices), sub.edges, 2, "backtracking")
        ex = solve_constraints(len(sub.vertices), sub.edges, 2, "exhaustive")
        assert (bt is None) == (ex is None)
        if bt is not None:
            assert check_coloring(sub, Coloring(k=2, colors=tuple(bt))) == []


def test_solver_agreement_dense_random_constraints():
    # adversarial dense instances where UNSAT genuinely occurs
    rng = random.Random(97)
    statuses = set()
    for _ in range(60):
        n = rng.randrange(5, 11)
        edges = []
        for _ in range(rng.randrange(n, 4 * n)):
            u, v, w = rng.sample(range(n), 3)
            edges.append((u, v, w))
        bt = solve_constraints(n, edges, 2, "backtracking")
        ex = solve_constraints(n, edges, 2, "exhaustive")
        assert (bt is None) == (ex is None)
        assert bt == first_proper_coloring(n, edges, 2)
        statuses.add(bt is None)
        if bt is not None:
            for u, v, w in edges:
                assert len({bt[u], bt[v], bt[w]}) > 1
    assert statuses == {True, False}  # both SAT and UNSAT were exercised


@pytest.mark.parametrize("k, max_n, seed, density, pairs", [(3, 11, 7, 1, 0.6), (4, 8, 8, 2, 0.8)])
def test_solver_agreement_dense_random_constraints_many_colors(k, max_n, seed, density, pairs):
    # edges (u, u, w) make a graph part: K_{k+1} in it is UNSAT on its own;
    # k**n stays under the exhaustive solver's 2^24
    rng = random.Random(seed)
    statuses = set()
    for _ in range(24):
        n = rng.randrange(k + 1, max_n + 1)
        edges = []
        for _ in range(rng.randrange(density * n, (density + 4) * n)):
            u, v, w = rng.sample(range(n), 3)
            edges.append((u, u, w) if rng.random() < pairs else (u, v, w))
        bt = solve_constraints(n, edges, k, "backtracking")
        ex = solve_constraints(n, edges, k, "exhaustive")
        assert (bt is None) == (ex is None)
        # the witness is the first proper coloring in (-degree, index) order
        assert bt == first_proper_coloring(n, edges, k)
        statuses.add(bt is None)
    assert statuses == {True, False}  # both SAT and UNSAT were exercised


def test_forward_checking_colors_full_closure():
    h = exp_closure({2}, 4)  # 112 vertices, 512 edges
    for k in (3, 4):
        col = solve_colorability(h, k)
        assert col is not None and col.k == k
        assert check_coloring(h, col) == []


def test_search_budget_bounds_backtracking():
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    # each color tried at a decision costs one unit: 22 to refute Fano at k=2
    assert solve_constraints(7, fano, 2, caps=Caps(search_budget=22)) is None
    with pytest.raises(CapacityError, match="backtracking search budget exceeded: 21"):
        solve_constraints(7, fano, 2, caps=Caps(search_budget=21))
    assert solve_constraints(7, fano, 3, caps=Caps(search_budget=6)) is not None
    with pytest.raises(CapacityError):
        solve_constraints(7, fano, 3, caps=Caps(search_budget=5))
    # forced colors are free: a 2-colored triangle costs the two colors of its first vertex
    triangle = [(0, 0, 1), (1, 1, 2), (0, 0, 2)]
    assert solve_constraints(3, triangle, 2, caps=Caps(search_budget=2)) is None
    with pytest.raises(CapacityError):
        solve_constraints(3, triangle, 2, caps=Caps(search_budget=1))
    h = exp_closure({2, 3}, 3)  # 522 vertices, 4,316 edges: no end in sight at k=3
    with pytest.raises(CapacityError, match="budget"):
        solve_colorability(h, 3, caps=Caps(search_budget=1000))
    # the exhaustive method keeps its own fixed ceiling
    assert solve_constraints(7, fano, 3, "exhaustive", Caps(search_budget=1)) is not None


def test_solver_agreement_three_colors():
    rng = random.Random(43)
    h = exp_closure({2}, 3)
    for _ in range(10):
        size = rng.randrange(2, 10)
        sub = sub_hypergraph(h, rng.sample(range(len(h.vertices)), size))
        bt = solve_constraints(len(sub.vertices), sub.edges, 3, "backtracking")
        ex = solve_constraints(len(sub.vertices), sub.edges, 3, "exhaustive")
        assert (bt is None) == (ex is None)


def test_dimacs_golden_single_edge():
    h = exp_closure({2}, 1)
    text = export_dimacs(h, 2)
    lines = text.splitlines()
    assert "p cnf 2 2" in lines
    assert lines[-2:] == ["1 2 0", "-1 -2 0"]


def test_dimacs_golden_three_vertex_edge():
    # a single (2, 3, 8) edge needs vertices {2, 3, 8}
    from exporamsey import normalize, triples_within
    from exporamsey.triples import ClosureMeta, TripleHypergraph

    verts = tuple(normalize(v) for v in (2, 3, 8))
    meta = ClosureMeta((2, 3), 0, 4096, 65536, 10 ** 5, 0, 0)
    h = TripleHypergraph(verts, ((0, 1, 2),), meta)
    text = export_dimacs(h, 2)
    lines = text.splitlines()
    assert "p cnf 3 2" in lines
    assert lines[-2:] == ["1 2 3 0", "-1 -2 -3 0"]


def test_dimacs_empty_hypergraph():
    h = exp_closure({3}, 0)
    lines = export_dimacs(h, 2).splitlines()
    assert lines[-1] == "p cnf 1 0"


def test_dimacs_header_counts_exact():
    for k in (2, 3):
        h = exp_closure({2, 3}, 2)
        nv, clauses, _ = parse_dimacs(export_dimacs(h, k))
        if k == 2:
            assert nv == len(h.vertices)
            assert len(clauses) == 2 * len(h.edges)
        else:
            assert nv == k * len(h.vertices)


def test_dimacs_roundtrip_all_assignments():
    # satisfaction of the CNF must coincide with zero-monochromatic colorings
    for seeds, depth in (({2}, 2), ({3}, 2), ({2, 3}, 1)):
        h = exp_closure(seeds, depth)
        nv = len(h.vertices)
        _, clauses, varmap = parse_dimacs(export_dimacs(h, 2))
        assert varmap == {i: i + 1 for i in range(nv)}
        for bits in itertools.product((0, 1), repeat=nv):
            true_vars = {i + 1 for i in range(nv) if bits[i]}
            col = decode_true_vars(h, 2, true_vars)
            assert col.colors == bits
            sat = cnf_satisfied(clauses, true_vars)
            assert sat == (check_coloring(h, col) == [])


def test_dimacs_roundtrip_k3():
    h = exp_closure({2}, 2)
    nv = len(h.vertices)
    _, clauses, _ = parse_dimacs(export_dimacs(h, 3))
    for assign in itertools.product(range(3), repeat=nv):
        true_vars = {i * 3 + c + 1 for i, c in enumerate(assign)}
        col = Coloring(k=3, colors=assign)
        sat = cnf_satisfied(clauses, true_vars)
        assert sat == (check_coloring(h, col) == [])


def test_count_mono_examples():
    rule = parse_rule("n % 2", 2)
    counts = count_mono_triples(rule, 30)
    # oracle-pinned: triples to 30 are 7; all-even 3, all-odd 1 via (3,3,27)
    assert counts.per_cell == (3, 1)
    assert counts.total == 4
    assert counts.rainbow == 3
    one_cell = parse_rule("0", 1)
    assert count_mono_triples(one_cell, 16).total == 5
    assert count_mono_triples(one_cell, 16).total == len(enumerate_triples(16))
    assert count_mono_triples(rule, 3).total == 0
    assert count_mono_triples(rule, 0).triple_count == 0
    with pytest.raises(DomainError, match="non-negative integer, got -5"):
        count_mono_triples(rule, -5)


def test_count_mono_at_many_bounds():
    rule = parse_rule("ilog2(n) % 3", 3)
    bounds = [5000, 0, 100, 5000, 64, 65, 4, 3]  # unsorted, repeated, on and between values of c
    got = count_mono_triples_at(rule, bounds)
    assert got == [count_mono_triples(rule, n) for n in bounds]
    assert [c.n_max for c in got] == bounds
    assert count_mono_triples_at(rule, []) == []
    with pytest.raises(DomainError, match="got -5"):
        count_mono_triples_at(rule, [16, -5, 1 << 80])  # the first bad bound in order
    with pytest.raises(CapacityError):
        count_mono_triples_at(rule, [16, 1 << 80, -5], Caps(value_bit_cap=64))
    with pytest.raises(CapacityError, match="over the limit"):
        count_mono_triples(rule, 10 ** 20)


def test_count_mono_against_direct_loop():
    rule = parse_rule("ilog2(n) % 3", 3)
    counts = count_mono_triples(rule, 2000)
    per_cell = [0, 0, 0]
    rainbow = 0
    for a, b, c in sorted(triples_oracle(2000)):
        cols = {(v.bit_length() - 1) % 3 for v in (a, b, c)}
        if len(cols) == 1:
            per_cell[cols.pop()] += 1
        else:
            rainbow += 1
    assert counts.per_cell == tuple(per_cell)
    assert counts.rainbow == rainbow


def test_count_mono_monotone_in_bound():
    rule = parse_rule("n % 3", 3)
    totals = [count_mono_triples(rule, n).total for n in (100, 1000, 5000, 20000)]
    assert totals == sorted(totals)


def test_count_mono_error_names_input():
    rule = parse_rule("1 / (n - 9)", 2)
    from exporamsey import RuleEvaluationError

    with pytest.raises(RuleEvaluationError, match="n=9"):
        count_mono_triples(rule, 30)


def test_coloring_record_roundtrip():
    h = closure2()
    col = solve_colorability(h, 2)
    rec = coloring_record(h, col)
    assert rec["k"] == 2
    assert set(rec["colors"]) == {"2", "4", "16", "256"}
    back = coloring_from_record(h, rec)
    assert back == col
    with pytest.raises(DomainError):
        coloring_from_record(h, {"k": 2, "colors": {"2": 0}})


def test_counts_csv_rows():
    rule = parse_rule("n % 2", 2)
    rows = counts_csv_rows(count_mono_triples(rule, 30))
    assert rows == ["30,0,3", "30,1,1", "30,total,4", "30,rainbow,3"]
