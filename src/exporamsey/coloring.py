"""k-colorability of triple hypergraphs and rule-based triple counting.

An edge is monochromatic when its deduplicated vertex set lies in one color
cell; for an edge like (2, 2, 4) the condition is color(2) == color(4).
The workhorse is backtracking with forward checking for every k, each color
attempt charged to `Caps.search_budget`; the exhaustive solver is the
independent oracle it is checked against.  `export_dimacs` bridges to
external SAT solvers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError
from .rules import ColorRule, parse_rule  # re-exported as part of this surface
from .triples import TripleHypergraph, check_triple_bound, iter_int_triples
from .tower import _record_int, vertex_label

__all__ = [
    "Coloring",
    "ColorRule",
    "parse_rule",
    "check_coloring",
    "solve_colorability",
    "solve_constraints",
    "export_dimacs",
    "decode_true_vars",
    "count_mono_triples",
    "count_mono_triples_at",
    "MonoCounts",
    "coloring_record",
    "coloring_from_record",
    "counts_record",
    "counts_csv_rows",
]

# k**|V| ceiling for the exhaustive solver.
_EXHAUSTIVE_BUDGET = 1 << 24


@dataclass(frozen=True)
class Coloring:
    """Total assignment vertex index -> color in [0, k)."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        if self.k < 2:
            raise DomainError(f"coloring needs k >= 2 cells, got {self.k}")
        if any(c < 0 or c >= self.k for c in self.colors):
            raise DomainError("color out of range")


def check_coloring(h: TripleHypergraph, col: Coloring) -> list[tuple[int, int, int]]:
    """Edges whose deduplicated vertices share one color."""
    if len(col.colors) != len(h.vertices):
        raise DomainError(
            f"partial assignment: {len(col.colors)} colors for {len(h.vertices)} vertices"
        )
    mono = []
    for a, b, c in h.edges:
        if col.colors[a] == col.colors[b] == col.colors[c]:
            mono.append((a, b, c))
    return mono


def _constraints(edges: Iterable[tuple[int, int, int]]) -> list[tuple[int, ...]]:
    return sorted({tuple(sorted(set(e))) for e in edges})


def _solve_exhaustive(n: int, edges: Sequence[tuple[int, int, int]], k: int) -> list[int] | None:
    if k ** n > _EXHAUSTIVE_BUDGET:
        raise CapacityError(f"exhaustive method budget exceeded: {k}^{n} > {_EXHAUSTIVE_BUDGET}")
    cons = _constraints(edges)
    if k == 2:
        # bitmask scan: assignment x is bad iff some constraint is all-0 or
        # all-1; constraints always have >= 2 vertices since c > a and c > b
        masks = [sum(1 << v for v in c) for c in cons]
        for x in range(1 << n):
            if all(0 < (x & m) < m for m in masks):
                return [(x >> i) & 1 for i in range(n)]
        return None
    for assign in itertools.product(range(k), repeat=n):
        if all(len({assign[v] for v in c}) > 1 for c in cons):
            return list(assign)
    return None


def _solve_backtracking(
    n: int, edges: Sequence[tuple[int, int, int]], k: int, budget: int
) -> list[int] | None:
    """First proper coloring in static (-degree, index) order, colors ascending.

    Forward checking prunes only colors no proper completion uses, so the
    witness is the one plain backtracking in this order would find.
    """
    cons = _constraints(edges)
    if not cons:
        return [0] * n
    deg = [0] * n
    for e in edges:
        for v in set(e):
            deg[v] += 1
    order = sorted(range(n), key=lambda v: (-deg[v], v))
    by_vertex: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for con in cons:
        for v in con:
            by_vertex[v].append(con)

    colors = [-1] * n
    domain = [(1 << k) - 1] * n  # bitmask of the colors still open to each vertex
    trail: list[int] = []  # assigned vertices, in assignment order
    removed: list[tuple[int, int]] = []  # (vertex, color bit) taken from its domain

    def propagate(start: int) -> bool:
        """Forward checking over trail[start:]; False on a monochromatic constraint.

        A constraint with one open vertex u whose assigned vertices all hold
        color c takes c from u's domain; a domain down to one color assigns
        it.  So an open vertex keeps two or more colors, no domain empties,
        and every conflict shows as a monochromatic constraint.
        """
        i = start
        while i < len(trail):
            v = trail[i]
            i += 1
            c = colors[v]
            for con in by_vertex[v]:
                open_v = -1
                for u in con:  # v itself holds c and passes both tests
                    cu = colors[u]
                    if cu < 0:
                        if open_v >= 0:
                            break
                        open_v = u
                    elif cu != c:
                        break
                else:
                    if open_v < 0:
                        return False
                    bit = 1 << c
                    d = domain[open_v]
                    if d & bit:
                        d ^= bit
                        domain[open_v] = d
                        removed.append((open_v, bit))
                        if not d & (d - 1):
                            colors[open_v] = d.bit_length() - 1
                            trail.append(open_v)
        return True

    # decisions: [vertex, next color to try, trail and removed lengths before it, order position]
    decisions: list[list[int]] = []
    ptr = 0
    attempts = 0
    while True:
        while ptr < n and colors[order[ptr]] >= 0:
            ptr += 1
        if ptr == n:
            return colors[:]
        decisions.append([order[ptr], 0, len(trail), len(removed), ptr])
        while True:
            top = decisions[-1]
            v, c, mark, rmark, ptr = top
            # undo anything from a previous failed attempt at this decision
            while len(trail) > mark:
                colors[trail.pop()] = -1
            while len(removed) > rmark:
                u, bit = removed.pop()
                domain[u] |= bit
            left = domain[v] >> c
            if not left:
                decisions.pop()
                if not decisions:
                    return None
                decisions[-1][1] += 1
                continue
            c += (left & -left).bit_length() - 1
            attempts += 1
            if attempts > budget:
                raise CapacityError(
                    f"backtracking search budget exceeded: {budget} color attempts")
            top[1] = c
            colors[v] = c
            trail.append(v)
            if propagate(mark):
                break
            top[1] = c + 1


def solve_constraints(
    num_vertices: int,
    edges: Sequence[tuple[int, int, int]],
    k: int,
    method: str = "backtracking",
    caps: Caps = DEFAULT_CAPS,
) -> list[int] | None:
    """SAT witness (list of colors) or None for UNSAT, on raw index triples."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if num_vertices < 0:
        raise DomainError("vertex count must be >= 0")
    for e in edges:
        if any(v < 0 or v >= num_vertices for v in e):
            raise DomainError(f"edge {e} out of range")
    if method == "backtracking":
        return _solve_backtracking(num_vertices, edges, k, caps.search_budget)
    if method == "exhaustive":
        return _solve_exhaustive(num_vertices, edges, k)
    raise DomainError(f"unknown method {method!r}")


def solve_colorability(
    h: TripleHypergraph, k: int, method: str = "backtracking", caps: Caps = DEFAULT_CAPS
) -> Coloring | None:
    """Proper k-coloring of h (no monochromatic edge) or None if none exists."""
    witness = solve_constraints(len(h.vertices), h.edges, k, method, caps)
    if witness is None:
        return None
    col = Coloring(k=k, colors=tuple(witness))
    if check_coloring(h, col):
        raise AssertionError("solver returned a coloring with monochromatic edges")
    return col


def export_dimacs(h: TripleHypergraph, k: int, caps: Caps = DEFAULT_CAPS) -> str:
    """DIMACS CNF whose satisfying assignments are the proper k-colorings.

    k = 2 uses one boolean per vertex (variable i+1 for vertex i): each edge
    with deduplicated vertex set {u, v, w} yields (u v w) and (-u -v -w).
    k > 2 uses variables x[v,c] = v*k + c + 1 with at-least-one and pairwise
    at-most-one clauses per vertex, and per edge and color one all-different
    clause.  Comment lines record the vertex/variable map.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    nv = len(h.vertices)
    lines = []
    clauses = []
    if k == 2:
        for i, v in enumerate(h.vertices):
            lines.append(f"c v {i} {vertex_label(v, caps)} var {i + 1}")
        for e in h.edges:
            vs = sorted(set(e))
            clauses.append(" ".join(str(v + 1) for v in vs) + " 0")
            clauses.append(" ".join(str(-(v + 1)) for v in vs) + " 0")
        lines.append(f"p cnf {nv} {len(clauses)}")
    else:
        for i, v in enumerate(h.vertices):
            first = i * k + 1
            lines.append(f"c v {i} {vertex_label(v, caps)} vars {first}..{first + k - 1}")
        for i in range(nv):
            base = i * k + 1
            clauses.append(" ".join(str(base + c) for c in range(k)) + " 0")
            for c1 in range(k):
                for c2 in range(c1 + 1, k):
                    clauses.append(f"-{base + c1} -{base + c2} 0")
        for e in h.edges:
            vs = sorted(set(e))
            for c in range(k):
                clauses.append(" ".join(str(-(v * k + c + 1)) for v in vs) + " 0")
        lines.append(f"p cnf {nv * k} {len(clauses)}")
    return "\n".join(lines + clauses) + "\n"


def decode_true_vars(h: TripleHypergraph, k: int, true_vars: Iterable[int]) -> Coloring:
    """Coloring encoded by the set of true DIMACS variables."""
    tv = set(true_vars)
    nv = len(h.vertices)
    if k == 2:
        return Coloring(k=2, colors=tuple(1 if i + 1 in tv else 0 for i in range(nv)))
    colors = []
    for i in range(nv):
        cell = [c for c in range(k) if i * k + c + 1 in tv]
        if len(cell) != 1:
            raise DomainError(f"assignment gives vertex {i} {len(cell)} colors")
        colors.append(cell[0])
    return Coloring(k=k, colors=tuple(colors))


@dataclass(frozen=True)
class MonoCounts:
    """Monochromatic-triple census for one rule and bound."""

    n_max: int
    k: int
    per_cell: tuple[int, ...]
    total: int
    rainbow: int
    triple_count: int


def count_mono_triples(rule: ColorRule, n_max: int, caps: Caps = DEFAULT_CAPS) -> MonoCounts:
    """Classify every triple with c <= n_max under the rule's coloring."""
    return count_mono_triples_at(rule, [n_max], caps)[0]


def count_mono_triples_at(
    rule: ColorRule, bounds: Sequence[int], caps: Caps = DEFAULT_CAPS
) -> list[MonoCounts]:
    """`count_mono_triples` at each bound, in the order given, from one pass.

    Every bound is checked first.  Bounds may repeat and come in any order:
    one pass over the triples up to the largest, with one color cache, takes
    a snapshot of the counts as c passes each bound.
    """
    for n in bounds:
        check_triple_bound(n, caps)
    stops = sorted(set(bounds))
    cache: dict[int, int] = {}

    def color(v: int) -> int:
        got = cache.get(v)
        if got is None:
            got = cache[v] = rule.color(v)
        return got

    per_cell = [0] * rule.k
    rainbow = 0
    snapshots = {}  # bound -> (per-cell counts, rainbow count) over the triples with c <= bound
    i = 0
    for a, b, c in iter_int_triples(max(bounds, default=0)):
        while c > stops[i]:
            snapshots[stops[i]] = (tuple(per_cell), rainbow)
            i += 1
        ca = color(a)
        if ca == color(b) == color(c):
            per_cell[ca] += 1
        else:
            rainbow += 1
    for n in stops[i:]:
        snapshots[n] = (tuple(per_cell), rainbow)
    out = []
    for n in bounds:
        cells, rb = snapshots[n]
        out.append(MonoCounts(n_max=n, k=rule.k, per_cell=cells, total=sum(cells),
                              rainbow=rb, triple_count=sum(cells) + rb))
    return out


def coloring_record(h: TripleHypergraph, col: Coloring, caps: Caps = DEFAULT_CAPS) -> dict:
    return {
        "k": col.k,
        "colors": {
            vertex_label(v, caps): col.colors[i] for i, v in enumerate(h.vertices)
        },
    }


def coloring_from_record(h: TripleHypergraph, rec: dict, caps: Caps = DEFAULT_CAPS) -> Coloring:
    try:
        k = _record_int(rec["k"])
        mapping = rec["colors"]
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed coloring record: {exc}") from exc
    colors = []
    for v in h.vertices:
        label = vertex_label(v, caps)
        try:
            colors.append(_record_int(mapping[label]))
        except KeyError:
            raise DomainError(f"partial assignment: vertex {label} has no color") from None
        except (TypeError, ValueError) as exc:
            raise DomainError(f"malformed color for vertex {label}: {exc}") from exc
    return Coloring(k=k, colors=tuple(colors))


def counts_record(counts: MonoCounts) -> dict:
    return {
        "N": str(counts.n_max),
        "k": counts.k,
        "per_cell": {str(c): counts.per_cell[c] for c in range(counts.k)},
        "total": counts.total,
        "rainbow": counts.rainbow,
        "triples": counts.triple_count,
    }


def counts_csv_rows(counts: MonoCounts) -> list[str]:
    """Rows in the "N,cell,count" schema, cells first, then total and rainbow."""
    rows = [f"{counts.n_max},{c},{counts.per_cell[c]}" for c in range(counts.k)]
    rows.append(f"{counts.n_max},total,{counts.total}")
    rows.append(f"{counts.n_max},rainbow,{counts.rainbow}")
    return rows
