"""Colorability solvers, DIMACS export, and rule-based counting."""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from exporamsey import coloring
from exporamsey import (
    CapacityError,
    Caps,
    Coloring,
    DomainError,
    RuleEvaluationError,
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

from oracles import (
    cnf_satisfied,
    dimacs_oracle,
    first_proper_coloring,
    parse_dimacs,
    triples_oracle,
)


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
    col = solve_colorability(h, 2)
    assert list(col.colors) == first_proper_coloring(len(h.vertices), h.edges, 2)
    assert check_coloring(h, col) == []
    h1 = exp_closure({2}, 1)
    assert solve_colorability(h1, 2) is not None
    h0 = exp_closure({3}, 0)
    assert solve_colorability(h0, 2) is not None


def test_solve_budget_and_validation():
    h = closure2()
    with pytest.raises(DomainError):
        solve_colorability(h, 1)
    # caps is keyword-only: a positional argument after k is refused
    with pytest.raises(TypeError):
        solve_colorability(h, 2, "backtracking")
    with pytest.raises(TypeError):
        solve_constraints(4, h.edges, 2, "backtracking")


@pytest.mark.parametrize("num_vertices, edges, message", [
    (-1, [], "vertex count must be >= 0"),
    (2, [(0, 1, 2)], r"edge \(0, 1, 2\) out of range"),
], ids=["negative_vertex_count", "edge_out_of_range"])
def test_solve_constraints_validation(num_vertices, edges, message):
    with pytest.raises(DomainError, match=message):
        solve_constraints(num_vertices, edges, 2)


def test_solver_unsat_on_fano_plane():
    # the Fano plane is the minimal non-2-colorable 3-uniform hypergraph
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    assert solve_constraints(7, fano, 2) is None
    assert first_proper_coloring(7, fano, 2) is None
    # but it is 3-colorable
    witness = solve_constraints(7, fano, 3)
    assert witness is not None
    assert witness == first_proper_coloring(7, fano, 3)


def test_solver_agreement_random_subgraphs():
    rng = random.Random(41)
    universes = [exp_closure({2}, 3), exp_closure({3}, 3), exp_closure({2, 3}, 2)]
    for _ in range(40):
        h = rng.choice(universes)
        size = rng.randrange(2, min(15, len(h.vertices)) + 1)
        sub = sub_hypergraph(h, rng.sample(range(len(h.vertices)), size))
        bt = solve_constraints(len(sub.vertices), sub.edges, 2)
        assert bt == first_proper_coloring(len(sub.vertices), sub.edges, 2)
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
        bt = solve_constraints(n, edges, 2)
        assert bt == first_proper_coloring(n, edges, 2)
        statuses.add(bt is None)
        if bt is not None:
            for u, v, w in edges:
                assert len({bt[u], bt[v], bt[w]}) > 1
    assert statuses == {True, False}  # both SAT and UNSAT were exercised


@pytest.mark.parametrize("k, max_n, seed, density, pairs", [(3, 11, 7, 1, 0.6), (4, 8, 8, 2, 0.8)])
def test_solver_agreement_dense_random_constraints_many_colors(k, max_n, seed, density, pairs):
    # edges (u, u, w) make a graph part: K_{k+1} in it is UNSAT on its own;
    # k**n stays small enough for the brute-force oracle
    rng = random.Random(seed)
    statuses = set()
    for _ in range(24):
        n = rng.randrange(k + 1, max_n + 1)
        edges = []
        for _ in range(rng.randrange(density * n, (density + 4) * n)):
            u, v, w = rng.sample(range(n), 3)
            edges.append((u, u, w) if rng.random() < pairs else (u, v, w))
        bt = solve_constraints(n, edges, k)
        # the witness is the first proper coloring in (-degree, index) order
        assert bt == first_proper_coloring(n, edges, k)
        statuses.add(bt is None)
    assert statuses == {True, False}  # both SAT and UNSAT were exercised


def _outcome(n, edges, k, budget):
    try:
        return solve_constraints(n, edges, k, caps=Caps(search_budget=budget))
    except CapacityError as exc:
        return str(exc)


def test_colors_past_the_vertex_count_change_nothing():
    # k = n + 1 already leaves every domain two colors or more, so more colors
    # give the same witness, or the same budget error at the same attempt
    fano = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)]
    outcomes = [_outcome(7, fano, 8, budget) for budget in range(1, 10)]
    assert outcomes == [_outcome(7, fano, 10 ** 6, budget) for budget in range(1, 10)]
    assert outcomes[5] == "backtracking search budget exceeded: 6 color attempts"
    assert outcomes[6] == first_proper_coloring(7, fano, 8)
    # the color masks stay as wide as the vertex count needs
    h = exp_closure({2, 3}, 2)
    tracemalloc.start()
    try:
        col = solve_colorability(h, 10 ** 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert col.k == 10 ** 7 and col.colors == solve_colorability(h, len(h.vertices) + 1).colors


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


def test_solver_agreement_three_colors():
    rng = random.Random(43)
    h = exp_closure({2}, 3)
    for _ in range(10):
        size = rng.randrange(2, 10)
        sub = sub_hypergraph(h, rng.sample(range(len(h.vertices)), size))
        bt = solve_constraints(len(sub.vertices), sub.edges, 3)
        assert bt == first_proper_coloring(len(sub.vertices), sub.edges, 3)


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


def test_dimacs_clause_limit(monkeypatch):
    # 2 vertices and the edge (2, 2, 4): 2 clauses at k = 2, 2 * (1 + 3) + 3 = 11 at k = 3
    h = exp_closure({2}, 1)
    for k, n_clauses in ((2, 2), (3, 11)):
        monkeypatch.setattr(coloring, "_CNF_CLAUSE_LIMIT", n_clauses)
        assert len(parse_dimacs(export_dimacs(h, k))[1]) == n_clauses
        monkeypatch.setattr(coloring, "_CNF_CLAUSE_LIMIT", n_clauses - 1)
        with pytest.raises(CapacityError, match=f" {n_clauses} clauses"):
            export_dimacs(h, k)
    monkeypatch.undo()

    # the count comes first: no label, literal or clause is built past the limit
    def no_labels(*args):
        raise AssertionError("export_dimacs built a vertex label")

    monkeypatch.setattr("exporamsey.triples._form_label", no_labels)
    tracemalloc.start()
    try:
        for k in (3000, 10 ** 12, 10 ** 5000):
            with pytest.raises(CapacityError, match="clauses, over the limit"):
                export_dimacs(h, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # no vertex, no clause: nothing is built for the colours either
    empty = _random_hypergraph(random.Random(0), 0, 0, Caps())
    assert export_dimacs(empty, 10 ** 12) == "p cnf 0 0\n"


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
        col = decode_true_vars(h, 3, true_vars)
        assert col == Coloring(k=3, colors=assign)
        sat = cnf_satisfied(clauses, true_vars)
        assert sat == (check_coloring(h, col) == [])
    # a vertex with no true color variable, or with two, decodes to no coloring
    last = nv - 1
    one_each = {i * 3 + 1 for i in range(nv)}
    for true_vars, count in ((one_each - {last * 3 + 1}, 0), (one_each | {last * 3 + 2}, 2)):
        with pytest.raises(DomainError) as err:
            decode_true_vars(h, 3, true_vars)
        assert str(err.value) == f"assignment gives vertex {last} {count} colors"


def _random_hypergraph(rng, nv, n_edges, caps):
    from exporamsey import PowerForm
    from exporamsey.triples import ClosureMeta, TripleHypergraph

    roots = (2, 3, 5, 6, 7, 10, 11, 12)
    forms = {PowerForm(rng.choice(roots), rng.choice((1, 2, 3, 5, 40, 10 ** 4)))
             for _ in range(3 * nv)}
    verts = tuple(sorted(forms))[:nv]
    edges = []
    for _ in range(n_edges if verts else 0):
        a, b, c = (rng.randrange(len(verts)) for _ in range(3))
        if rng.random() < 0.3:
            b = a  # like (2, 2, 4): two vertices
        edges.append((a, b, c))
    meta = ClosureMeta((2,), 0, caps.value_bit_cap, caps.exp_bit_cap, caps.vertex_budget, 0, 0)
    return TripleHypergraph(verts, tuple(edges), meta)


def test_export_dimacs_matches_oracle():
    rng = random.Random(11)
    caps = Caps()
    h23 = exp_closure({2, 3}, 2)
    cases = [exp_closure({2}, 3), h23, exp_closure({3}, 0),
             sub_hypergraph(h23, range(0, len(h23.vertices), 2))]
    cases += [_random_hypergraph(rng, nv, n_edges, caps)
              for nv, n_edges in [(0, 0), (1, 0), (5, 0), (1, 3), (2, 4)] + [(12, 30)] * 20]
    assert any(not h.edges for h in cases)
    for h in cases:
        pairs = [(v.root, v.exponent) for v in h.vertices]
        for k in (2, 3, 4):
            expected = dimacs_oracle(pairs, h.edges, k, caps.value_bit_cap)
            assert export_dimacs(h, k, caps) == expected


def test_vertex_sets_match_sorted_set():
    rng = random.Random(2047)
    edges = [tuple(rng.randrange(6) for _ in range(3)) for _ in range(4000)]
    edges += [(2, 7, 4), (7, 2, 4), (3, 1, 5), (1, 3, 5)]
    # (a == b, b == c, a == c, c the strict largest): all seven possible shapes
    shapes = Counter((a == b, b == c, a == c, a < c > b) for a, b, c in edges)
    assert len(shapes) == 7
    assert min(shapes.values()) >= 50
    assert coloring._vertex_sets(edges) == [tuple(sorted(set(e))) for e in edges]
    h = exp_closure({2, 4}, 2)
    labels = [v.root ** v.exponent for v in h.vertices]
    named = {(labels[a], labels[b], labels[c]) for a, b, c in h.edges}
    assert {(2, 4, 16), (4, 2, 16), (2, 2, 4)} <= named
    assert all(a < c > b for a, b, c in h.edges)
    assert coloring._vertex_sets(h.edges) == [tuple(sorted(set(e))) for e in h.edges]


class _Blocks:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def writelines(self, texts):
        for text in texts:
            self.write(text)


def test_export_dimacs_streams_bounded_blocks(monkeypatch):
    cases = [exp_closure({2, 3}, 2), exp_closure({3}, 0), exp_closure({2}, 1),
             _random_hypergraph(random.Random(5), 12, 30, Caps())]
    expected = {(i, k): export_dimacs(h, k) for i, h in enumerate(cases) for k in (2, 3, 5)}
    for limit in (1, 2, 3, 7, 64):
        monkeypatch.setattr(coloring, "_CNF_BLOCK_LINES", limit)
        for i, h in enumerate(cases):
            for k in (2, 3, 5):
                assert export_dimacs(h, k) == expected[i, k]
                out = _Blocks()
                assert export_dimacs(h, k, out=out) is None
                assert "".join(out.writes) == expected[i, k]
                assert all(0 < w.count("\n") <= limit and w.endswith("\n") for w in out.writes)
    # past the clause limit nothing is written
    out = _Blocks()
    with pytest.raises(CapacityError):
        export_dimacs(exp_closure({2}, 1), 3000, out=out)
    assert out.writes == []


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
    with pytest.raises(RuleEvaluationError, match="n=9"):
        count_mono_triples(rule, 30)


def first_failure(colour, triples):
    """The value a counting pass fails at, or None; `colour(v)` is None where the rule fails.

    Triples go in (c, a, b) order.  Each colours a, then b, and c only when
    the colours of a and b match.
    """
    for a, b, c in sorted(triples, key=lambda t: (t[2], t[0], t[1])):
        ca, cb = colour(a), colour(b)
        if ca is None:
            return a
        if cb is None:
            return b
        if ca == cb and colour(c) is None:
            return c
    return None


def test_count_mono_error_names_first_failing_value():
    triples = triples_oracle(10 ** 5)
    for t in range(2, 301):
        cases = {
            # 1 / (n - t) truncates to 0 unless n - t is 1 or -1
            f"1 / (n - {t})": lambda v: None if v == t else int(abs(v - t) == 1),
            f"ilog2(n - {t})": lambda v: None if v <= t else (v - t).bit_length() % 2 ^ 1,
        }
        for source, colour in cases.items():
            n = first_failure(colour, triples)
            with pytest.raises(RuleEvaluationError, match=f"at n={n}:"):
                count_mono_triples_at(parse_rule(source, 2), [10 ** 5])
    # (2, 3, 8) colours 2 and 3 apart, so 8 is first coloured as the a of (8, 2, 64)
    rule = parse_rule("if(n == 8, 1 / 0, n % 2)", 2)
    assert first_failure(lambda v: None if v == 8 else v % 2, triples) == 8
    assert count_mono_triples_at(rule, [63])[0].triple_count == len(triples_oracle(63))
    with pytest.raises(RuleEvaluationError, match="at n=8:"):
        count_mono_triples_at(rule, [64])
    # the tables colour base 5 before 16, but the c of (2, 4, 16) comes
    # before the a of (5, 2, 25)
    for other, colour in (("0", lambda v: 0), ("n % 2", lambda v: v % 2)):
        rule = parse_rule(f"if(n == 5 or n == 16, 1 / 0, {other})", 2)
        fails = lambda v: None if v in (5, 16) else colour(v)
        assert first_failure(fails, triples_oracle(100)) == 16
        with pytest.raises(RuleEvaluationError, match="at n=16:"):
            count_mono_triples_at(rule, [100])


def test_count_mono_checks_bounds_before_colouring():
    rule = parse_rule("1 / 0", 2)
    with pytest.raises(DomainError, match="got -5"):
        count_mono_triples_at(rule, [16, -5])
    with pytest.raises(CapacityError):
        count_mono_triples_at(rule, [16, 10 ** 20])
    for rule in (parse_rule("1 / 0", 2), parse_rule("1 / (n - 2)", 2)):
        assert count_mono_triples_at(rule, [3])[0].triple_count == 0  # no triple, no colour
        with pytest.raises(RuleEvaluationError, match="at n=2:"):
            count_mono_triples_at(rule, [3, 4])


def test_count_mono_cell_limit(monkeypatch):
    # k cells at each bound given, repeats included: 3 * 2 = 6 cells for n % 3 at [16, 16]
    rule = parse_rule("n % 3", 3)
    monkeypatch.setattr(coloring, "_COUNT_CELL_LIMIT", 6)
    counts = count_mono_triples_at(rule, [16, 16])
    assert counts == [count_mono_triples(rule, 16)] * 2
    monkeypatch.setattr(coloring, "_COUNT_CELL_LIMIT", 5)
    with pytest.raises(CapacityError, match="^a 3-cell count at 2 bounds has 6 cells, "
                                            "over the limit of 5$"):
        count_mono_triples_at(rule, [16, 16])
    monkeypatch.undo()
    # the size comes first: a trillion colours is refused before any cell is allocated
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="cells, over the limit of 1048576$"):
            count_mono_triples_at(parse_rule("n", 10 ** 12), [100])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_count_mono_colours_two_once_per_pass(monkeypatch):
    from exporamsey import rules

    seen = []
    compile_colors = rules._compile_colors

    def spy(body, k):
        colors = compile_colors(body, k)

        def batch(ns):
            ns = list(ns)
            seen.extend(ns)
            return colors(ns)

        return batch

    def colour(v):
        return ((v.bit_length() - 1).bit_length() - 1) % 2

    monkeypatch.setattr(rules, "_compile_colors", spy)
    rule = parse_rule("ilog2(ilog2(n)) % 2", 2)
    for bounds in ([10 ** 4, 10 ** 6], [10 ** 6], [8], [4], [0, 3, 5]):
        seen.clear()
        counts = count_mono_triples_at(rule, bounds)
        assert [c.triple_count for c in counts] == [len(triples_oracle(n)) for n in bounds]
        # the in-order pass colours each a and b, and c when a and b agree;
        # each base and exponent is coloured once, and c once per such triple
        triples = triples_oracle(max(bounds))
        once = Counter({v: 1 for a, b, _ in triples for v in (a, b)})
        per_triple = Counter(c for a, b, c in triples if colour(a) == colour(b))
        assert set(seen) == set(once + per_triple)
        assert Counter(seen) <= once + per_triple
        assert seen.count(2) == 1
    seen.clear()
    assert count_mono_triples_at(rule, [3, 0])[0].triple_count == 0
    assert seen == []  # no triple, so nothing is coloured


def test_count_mono_falls_back_only_when_a_colour_fails(monkeypatch):
    from exporamsey import coloring

    fallbacks = []
    locate = coloring._raise_first_failure

    def spy(rule, top):
        fallbacks.append(top)
        return locate(rule, top)

    monkeypatch.setattr(coloring, "_raise_first_failure", spy)
    # 8 fails, but up to 63 it is only the c of (2, 3, 8), whose a and b differ
    rule = parse_rule("if(n == 8, 1 / 0, n % 2)", 2)
    assert count_mono_triples_at(rule, [63, 10])[0].triple_count == len(triples_oracle(63))
    assert fallbacks == []
    with pytest.raises(RuleEvaluationError, match="at n=8:"):
        count_mono_triples_at(rule, [64, 10])
    assert fallbacks == [64]


def test_count_mono_memory_stays_flat():
    rule = parse_rule("n % 2", 2)
    count_mono_triples_at(rule, [100])  # compiles the batch function before measuring
    peaks = []
    for n in (10 ** 9, 10 ** 11):
        tracemalloc.start()
        try:
            count_mono_triples_at(rule, [n])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    # a table of all 3 * 10**5 more bases, or a list of the 4,000 more c with
    # b >= 3, would add over 100 KiB
    assert peaks[1] <= peaks[0] + 4096, peaks


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
