"""k-colorability of triple hypergraphs and rule-based triple counting.

An edge is monochromatic when its deduplicated vertex set lies in one color
cell; for an edge like (2, 2, 4) the condition is color(2) == color(4).
Every edge the package builds (`exp_closure`, `sub_hypergraph`, a checked
hypergraph record) has c as its strictly largest index, because a^b > a, b;
`_vertex_sets` reads that edge's set off its shape and sorts only other
raw triples.
The one solver is backtracking with forward checking for every k, each
color attempt charged to `Caps.search_budget`; the tests check its witnesses
against the independent brute-force oracle in `tests/oracles.py`.
`export_dimacs` bridges to external SAT solvers.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from itertools import chain, combinations, islice, starmap
from typing import Iterable, Iterator, Sequence, TextIO

from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError, RuleEvaluationError, message_int
from .rules import ColorRule
from .triples import TripleHypergraph, check_triple_bound, iter_int_triples
from .tower import _record_int, ikth_root, vertex_label

# Most clauses export_dimacs writes; each is a line of text, so this bounds its output.
_CNF_CLAUSE_LIMIT = 1 << 22
# Most lines in one block of export_dimacs text, so writing it holds one block at a time.
_CNF_BLOCK_LINES = 1 << 16


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
    colors = col.colors
    return [e for e in h.edges if colors[e[0]] == colors[e[1]] == colors[e[2]]]


def _vertex_sets(edges: Iterable[tuple[int, int, int]]) -> list[tuple[int, ...]]:
    """Each edge's distinct vertices, ascending, in edge order.

    An edge with c its strictly largest index, as every edge the package
    builds, gives (a, b, c), (b, a, c) or (a, c); any other triple is sorted.
    """
    return [((a, b, c) if a < b else (b, a, c) if b < a else (a, c)) if a < c > b
            else tuple(sorted({a, b, c})) for a, b, c in edges]


def _solve_backtracking(
    n: int, edges: Sequence[tuple[int, int, int]], k: int, budget: int
) -> list[int] | None:
    """First proper coloring in static (-degree, index) order, colors ascending.

    Forward checking prunes only colors no proper completion uses, so the
    witness is the one plain backtracking in this order would find.  The masks
    hold min(k, n + 1) colors: a domain loses at most n - 1, so from n + 1 on
    none is ever forced, and every decision takes a color below n.
    """
    vsets = _vertex_sets(edges)
    if not vsets:
        return [0] * n
    cons = sorted(set(vsets))
    deg = Counter(chain.from_iterable(vsets))  # an edge and its mirror count twice
    order = sorted(range(n), key=lambda v: (-deg[v], v))
    by_vertex: list[list[tuple[int, ...]]] = [[] for _ in range(n)]
    for con in cons:
        for v in con:
            by_vertex[v].append(con)

    colors = [-1] * n
    domain = [(1 << min(k, n + 1)) - 1] * n  # bitmask of the colors still open to each vertex
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
    *,
    caps: Caps = DEFAULT_CAPS,
) -> list[int] | None:
    """SAT witness (list of colors) or None for UNSAT, on raw index triples."""
    _check_k(k)
    if num_vertices < 0:
        raise DomainError("vertex count must be >= 0")
    for e in edges:
        if any(v < 0 or v >= num_vertices for v in e):
            raise DomainError(f"edge {e} out of range")
    return _solve_backtracking(num_vertices, edges, k, caps.search_budget)


def _check_k(k: int) -> None:
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")


def solve_colorability(
    h: TripleHypergraph, k: int, *, caps: Caps = DEFAULT_CAPS
) -> Coloring | None:
    """Proper k-coloring of h (no monochromatic edge) or None if none exists.

    A hypergraph's edges are in range by construction (`exp_closure`,
    `sub_hypergraph`) or by the check in `hypergraph_from_record`.
    """
    _check_k(k)
    witness = _solve_backtracking(len(h.vertices), h.edges, k, caps.search_budget)
    if witness is None:
        return None
    col = Coloring(k=k, colors=tuple(witness))
    if check_coloring(h, col):
        raise AssertionError("solver returned a coloring with monochromatic edges")
    return col


def export_dimacs(
    h: TripleHypergraph, k: int, caps: Caps = DEFAULT_CAPS, out: TextIO | None = None
) -> str | None:
    """DIMACS CNF whose satisfying assignments are the proper k-colorings.

    k = 2 uses one boolean per vertex (variable i+1 for vertex i): each edge
    with deduplicated vertex set {u, v, w} yields (u v w) and (-u -v -w).
    k > 2 uses variables x[v,c] = v*k + c + 1 with at-least-one and pairwise
    at-most-one clauses per vertex, and per edge and color one all-different
    clause.  Comment lines record the vertex/variable map.  More than
    _CNF_CLAUSE_LIMIT clauses is a CapacityError, raised before any is built.

    The text is made in blocks of at most _CNF_BLOCK_LINES lines.  With
    `out`, each block is written to it as it comes and None is returned;
    without, the blocks are joined into the returned string.
    """
    _check_k(k)
    nv = len(h.vertices)
    n_clauses = 2 * len(h.edges) if k == 2 else nv * (1 + k * (k - 1) // 2) + k * len(h.edges)
    if n_clauses > _CNF_CLAUSE_LIMIT:
        raise CapacityError(f"a {message_int(k)}-color CNF of {nv} vertices and {len(h.edges)} "
                            f"edges has {message_int(n_clauses)} clauses, over the limit of "
                            f"{_CNF_CLAUSE_LIMIT}")
    labels = [vertex_label(v, caps) for v in h.vertices]
    blocks = ("\n".join(lines) + "\n" for lines in _dimacs_blocks(h, k, labels, n_clauses))
    if out is None:
        return "".join(blocks)
    out.writelines(blocks)
    return None


def _dimacs_blocks(
    h: TripleHypergraph, k: int, labels: list[str], n_clauses: int
) -> Iterator[list[str]]:
    """The lines of `export_dimacs`, in lists of at most _CNF_BLOCK_LINES."""
    nv = len(labels)
    step = _CNF_BLOCK_LINES
    for lo in range(0, nv, step):
        yield [f"c v {i} {label} var {i + 1}" if k == 2 else
               f"c v {i} {label} vars {i * k + 1}..{i * k + k}"
               for i, label in enumerate(labels[lo:lo + step], lo)]
    yield [f"p cnf {nv if k == 2 else nv * k} {n_clauses}"]
    if k == 2:
        # a vertex's row: its literal in an edge's positive clause, then in its negative one
        pos = [f"{x} " for x in range(1, nv + 1)]
        rows = list(zip(pos, ["-" + x for x in pos]))
    else:
        # a vertex's row: its k negative literals, one per color
        neg = [f"-{x} " for x in range(1, nv * k + 1)]
        rows = [tuple(neg[i:i + k]) for i in range(0, nv * k, k)]
        # per vertex, the at-least-one clause as the pair (its positive literals, ""),
        # then the pairwise at-most-one clauses
        pairs = chain.from_iterable(chain((("".join(row).replace("-", ""), ""),),
                                          combinations(row, 2)) for row in rows)
        while lines := [f"{x}{y}0" for x, y in islice(pairs, step)]:
            yield lines
    if not h.edges:
        return
    # a constraint's clauses zip its vertices' rows; an empty row pads it to three
    rows.append(("",) * len(rows[0]))
    edges = [vs if len(vs) == 3 else (nv,) * (3 - len(vs)) + vs for vs in _vertex_sets(h.edges)]
    triples = chain.from_iterable(starmap(zip, [(rows[a], rows[b], rows[c]) for a, b, c in edges]))
    while lines := [f"{x}{y}{z}0" for x, y, z in islice(triples, step)]:
        yield lines


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
    """`count_mono_triples` at each bound, in the order given, from colour tables.

    Every bound is checked first; bounds may repeat and come in any order.
    `ColorRule.colors` fills a table of colour(a) for the bases a up to
    max(isqrt, log2) of the largest bound, in fixed-size chunks, so memory
    stays flat up to the base cap.  For each chunk and exponent b, the c =
    a**b of the bases a with colour(a) == colour(b) are coloured in one
    batch, in ascending order, and each bound counts the monochromatic ones
    up to it by bisection.  The number of triples up to a bound comes from
    integer roots.  So the batches colour exactly the values that an
    in-order walk of the triples by (c, a, b) colours, where each triple
    colours a, then b, and c only when a and b match; they colour each base
    once, and bounds below 4 colour nothing.

    Rules are pure, so when an evaluation fails that walk,
    `_raise_first_failure`, fails too, and its error names the first failing
    n in (c, a, b) order.
    """
    for n in bounds:
        check_triple_bound(n, caps)
    stops = sorted(set(bounds))
    try:
        snapshots = _count_by_tables(rule, stops)
    except RuleEvaluationError:
        _raise_first_failure(rule, stops[-1])
        raise
    out = []
    for n in bounds:
        cells, rb = snapshots[n]
        out.append(MonoCounts(n_max=n, k=rule.k, per_cell=cells, total=sum(cells),
                              rainbow=rb, triple_count=sum(cells) + rb))
    return out


# Bases coloured per `ColorRule.colors` call.  One chunk's lists, not the
# bound, set the memory that rule counting takes.
_CHUNK = 4096

Snapshots = dict[int, tuple[tuple[int, ...], int]]  # bound -> (per-cell counts, rainbow count)


def _count_by_tables(rule: ColorRule, stops: list[int]) -> Snapshots:
    """The counts at sorted, distinct bounds, from colour tables and bisection."""
    per_cell = [[0] * rule.k for _ in stops]  # per bound
    top = stops[-1] if stops else 0
    log = top.bit_length() - 1  # every b
    roots = [0, 0] + [ikth_root(top, b) for b in range(2, log + 1)]  # the a of each b
    last = max(roots[2], log) if top >= 4 else 1  # every a and b; below 4 there are none
    colors = rule.colors
    for lo in range(2, last + 1, _CHUNK):
        hi = min(lo + _CHUNK, last + 1)
        table = colors(range(lo, hi))  # table[a - lo] is colour(a)
        if lo == 2:
            exps = [0, 0] + table[: log - 1]  # exps[b] is colour(b)
        for b in range(2, log + 1):
            if roots[b] < lo:
                break
            cell = exps[b]
            # c = a**b, ascending, for the bases a that share b's colour
            cs = [a ** b for a, ca in zip(range(lo, min(hi, roots[b] + 1)), table) if ca == cell]
            cs_colors = colors(cs)
            for cells, n in zip(per_cell, stops):
                cells[cell] += cs_colors[: bisect_right(cs, n)].count(cell)
    return {n: (tuple(cells), _triple_count(n) - sum(cells)) for n, cells in zip(stops, per_cell)}


def _triple_count(n: int) -> int:
    """The number of triples (a, b, a**b) with c <= n."""
    return sum(ikth_root(n, b) - 1 for b in range(2, n.bit_length()))


def _raise_first_failure(rule: ColorRule, top: int) -> None:
    """Colour the triples with c <= top in order through `ColorRule.color`.

    Each triple colours a, then b, and c only when a and b match, so the
    first failing n raises its error; a rule that never fails returns.
    """
    color = rule.color
    for a, b, c in iter_int_triples(top):
        if color(a) == color(b):
            color(c)


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
