"""Exponential-triple enumeration and exponentiation-closure hypergraphs.

An exponential triple is an ordered triple (a, b, c) with a**b = c and
a, b >= 2.  The closure of a seed set under (a, b) -> a**b gives a finite
universe; its triples are the hyperedges whose k-colorability the coloring
module searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError
from .tower import (
    LT,
    PowerForm,
    _canonical,
    _check_record_caps,
    _form_label,
    _form_record,
    _powerform_fields,
    _record_int,
    _try_value,
    compare,
    int_text,
    normalize,
    sorted_forms,
)

# Largest base a, about the square root of the bound on c, that the integer
# triple kernels take.  Their time, and the memory of `enumerate_triples`,
# grow with the number of bases: a bound of 10**12 (10**6 bases) is allowed,
# and 10**20 (10**10 bases) is refused before anything is allocated.
_MAX_TRIPLE_BASE = 1 << 22
# Closure rounds allowed per run.
_MAX_CLOSURE_DEPTH = 4


@dataclass(frozen=True, slots=True)
class ExpTriple:
    """Ordered triple (a, b, c) of canonical forms with a**value(b) = c."""

    a: PowerForm
    b: PowerForm
    c: PowerForm

    def __post_init__(self):
        # in a triple value(b) divides c's exponent, so a wider b is none
        vb = _try_value(self.b.root, self.b.exponent, self.c.exponent.bit_length())
        if self.c.root != self.a.root or vb is None or self.c.exponent != self.a.exponent * vb:
            raise DomainError(f"not an exponential triple: {self}")

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


# The slot descriptors' setters, which skip the frozen __setattr__ and its checks.
_set_a, _set_b, _set_c = ExpTriple.a.__set__, ExpTriple.b.__set__, ExpTriple.c.__set__


def _triple(a: PowerForm, b: PowerForm, c: PowerForm) -> ExpTriple:
    """An ExpTriple built without checks, for a triple the caller made by construction."""
    t = object.__new__(ExpTriple)
    _set_a(t, a)
    _set_b(t, b)
    _set_c(t, c)
    return t


def _check_bases(n: int) -> None:
    if math.isqrt(n) > _MAX_TRIPLE_BASE:
        raise CapacityError(
            f"bound {n} needs bases up to {math.isqrt(n)}, over the limit {_MAX_TRIPLE_BASE}"
        )


def check_triple_bound(n: int, caps: Caps = DEFAULT_CAPS) -> None:
    """Refuse a bound on c that the integer triple kernels cannot take."""
    if not isinstance(n, int) or n < 0:
        raise DomainError(f"bound must be a non-negative integer, got {n!r}")
    if n.bit_length() > caps.value_bit_cap:
        raise CapacityError(f"bound exceeds value_bit_cap {caps.value_bit_cap}")
    _check_bases(n)


def iter_int_triples(n: int) -> Iterator[tuple[int, int, int]]:
    """All (a, b, a**b) with a, b >= 2 and a**b <= n, ascending by (c, a, b).

    The squares come in order as a grows; the few triples with b >= 3
    (a <= cube root of n) are sorted apart and merged in.  On equal c the
    one with b >= 3 has the smaller a, so it goes first.  A bound whose
    square root passes _MAX_TRIPLE_BASE raises CapacityError at the first step.
    """
    _check_bases(max(n, 0))
    higher = []
    a = 2
    while a ** 3 <= n:
        v, b = a ** 3, 3
        while v <= n:
            higher.append((v, a, b))
            v, b = v * a, b + 1
        a += 1
    higher.sort()
    higher.append((n + 1, 0, 0))  # past every square: ends the merge
    i = 0
    next_c = higher[0][0]
    for a in range(2, math.isqrt(max(n, 0)) + 1):
        square = a * a
        while next_c <= square:
            c, x, b = higher[i]
            yield x, b, c
            i += 1
            next_c = higher[i][0]
        yield a, 2, square
    for c, x, b in higher[i:-1]:
        yield x, b, c


def enumerate_triples(n: int, caps: Caps = DEFAULT_CAPS) -> list[ExpTriple]:
    """Exponential triples with c <= n as canonical-form records, ordered by (c, a, b).

    Every base a and exponent b is at most max(isqrt(n), bit length of n).
    Their canonical forms come from a sieve over that range: each
    perfect-power-free root r marks r**j (j >= 2) as (r, j), and every
    unmarked value is its own root.  c = a**b is then (r, j * b).
    """
    check_triple_bound(n, caps)
    top = max(math.isqrt(n), n.bit_length())
    powers: dict[int, tuple[int, int]] = {}  # perfect power -> (root, exponent)
    for r in range(2, math.isqrt(top) + 1):
        if r not in powers:  # no smaller root marked it, so r is perfect-power-free
            v, j = r * r, 2
            while v <= top:
                powers[v] = (r, j)
                v, j = v * r, j + 1
    b_forms = {b: _canonical(*powers.get(b, (b, 1))) for b in range(2, n.bit_length() + 1)}
    found = []
    for a, b, _ in iter_int_triples(n):
        root, exp = powers.get(a, (a, 1))
        found.append(_triple(_canonical(root, exp), b_forms[b], _canonical(root, exp * b)))
    return found


def _values(verts: Sequence[PowerForm], bit_cap: int) -> tuple[int | None, ...]:
    """Each vertex's value, None past bit_cap bits."""
    return tuple([_try_value(v.root, v.exponent, bit_cap) for v in verts])


def _edges(
    verts: Sequence[PowerForm], values: Sequence[int | None]
) -> list[tuple[int, int, int]]:
    """Index triples (a, b, c) over distinct, ascending `verts`, ordered by (c, a, b).

    values[j] is verts[j]'s value, None when symbolic; only evaluable b are
    tried.  The walk goes root by root over that root's {exponent: index}
    map, a.exponent * value(b) bounded by the root's largest exponent: every
    edge's c shares a's root.  Within a root, exponents and indices ascend
    together, so the edges of one c come out in (a, b) order, and the stable
    sort on c keeps it.  Each hit satisfies the triple relation by
    construction, so no `ExpTriple` is built to check it.
    """
    by_root: dict[int, dict[int, int]] = {}  # root -> {exponent: vertex index}
    for i, v in enumerate(verts):
        by_root.setdefault(v.root, {})[v.exponent] = i
    # ascending by value, so a.exponent * vb grows along the inner loop
    evaluable = [(j, vb) for j, vb in enumerate(values) if vb is not None]
    found = []
    for same_root in by_root.values():
        limit = max(same_root)
        get = same_root.get
        for a_exp, i in same_root.items():
            for j, vb in evaluable:
                exp = a_exp * vb
                if exp > limit:
                    break
                k = get(exp)
                if k is not None:
                    found.append((i, j, k))
    found.sort(key=itemgetter(2))
    return found


def triples_within(forms: Iterable[PowerForm], caps: Caps = DEFAULT_CAPS) -> list[ExpTriple]:
    """All triples with a, b, c in the set and b explicitly evaluable."""
    verts = sorted_forms(set(forms))
    edges = _edges(verts, _values(verts, caps.value_bit_cap))
    return [_triple(verts[a], verts[b], verts[c]) for a, b, c in edges]


@dataclass(frozen=True)
class ClosureMeta:
    seeds: tuple[int, ...]
    depth: int
    value_bit_cap: int
    exp_bit_cap: int
    vertex_budget: int
    dropped_count: int
    truncated_count: int


@dataclass(frozen=True)
class TripleHypergraph:
    """Vertices in ascending value order; edges as vertex-index triples.

    Every edge (a, b, c) the package builds (`exp_closure`, `sub_hypergraph`,
    `hypergraph_from_record`) has c as its strictly largest index, because
    a^b > a, b for values of at least 2.

    Those builders also keep each vertex's value, None when symbolic, in
    `values`, computed under `values_bit_cap`; labels and records read it
    through `vertex_values`.  Neither field takes part in equality.
    """

    vertices: tuple[PowerForm, ...]
    edges: tuple[tuple[int, int, int], ...]
    meta: ClosureMeta
    values: tuple[int | None, ...] | None = field(default=None, compare=False, repr=False)
    values_bit_cap: int | None = field(default=None, compare=False, repr=False)


def vertex_values(h: TripleHypergraph, caps: Caps = DEFAULT_CAPS) -> tuple[int | None, ...]:
    """Each vertex's value, None past caps.value_bit_cap bits.

    h's own table when it was computed under that cap, else computed here.
    """
    if h.values is not None and h.values_bit_cap == caps.value_bit_cap:
        return h.values
    return _values(h.vertices, caps.value_bit_cap)


def vertex_labels(h: TripleHypergraph, caps: Caps = DEFAULT_CAPS) -> Iterator[str]:
    """`vertex_label` of each vertex in turn, from `vertex_values`."""
    return map(_form_label, h.vertices, vertex_values(h, caps))


def exp_closure(seeds: Iterable[int], depth: int, caps: Caps = DEFAULT_CAPS) -> TripleHypergraph:
    """Close seeds under exponentiation `depth` times and collect all triples.

    Pairs whose exponent part is not explicitly evaluable are skipped;
    results over the exponent cap are dropped and counted.  If the vertex
    set outgrows the budget it is truncated to the smallest values, which
    is deterministic but loses monotonicity in depth.
    """
    seed_list = sorted(set(seeds))
    if not seed_list:
        raise DomainError("closure needs at least one seed")
    if not all(isinstance(s, int) and s >= 2 for s in seed_list):
        raise DomainError("closure seeds must be integers >= 2")
    if depth < 0:
        raise DomainError("depth must be >= 0")
    if depth > _MAX_CLOSURE_DEPTH:
        raise CapacityError(f"depth {depth} exceeds max_closure_depth {_MAX_CLOSURE_DEPTH}")

    # rounds run on (root, exponent) pairs; forms are built only to sort
    vertices = {(f.root, f.exponent) for f in (normalize(s, caps) for s in seed_list)}
    dropped = 0
    truncated = 0
    # The sorted vertices of the last round that truncated.  A cut leaves exactly
    # vertex_budget vertices, so a later round either cuts again or adds none.
    kept = None
    for _ in range(depth):
        values = sorted(vb for root, exp in vertices
                        if (vb := _try_value(root, exp, caps.value_bit_cap)) is not None)
        new = set()
        for root, exp in vertices:
            for j, vb in enumerate(values):
                new_exp = exp * vb
                if new_exp.bit_length() > caps.exp_bit_cap:
                    dropped += len(values) - j  # the larger values overflow too
                    break
                new.add((root, new_exp))
        vertices |= new
        if len(vertices) > caps.vertex_budget:
            kept = _sorted_pairs(vertices)[: caps.vertex_budget]
            truncated += len(vertices) - len(kept)
            vertices = {(f.root, f.exponent) for f in kept}

    verts = tuple(kept if kept is not None else _sorted_pairs(vertices))
    table = _values(verts, caps.value_bit_cap)
    meta = ClosureMeta(
        seeds=tuple(seed_list),
        depth=depth,
        value_bit_cap=caps.value_bit_cap,
        exp_bit_cap=caps.exp_bit_cap,
        vertex_budget=caps.vertex_budget,
        dropped_count=dropped,
        truncated_count=truncated,
    )
    return TripleHypergraph(vertices=verts, edges=tuple(_edges(verts, table)), meta=meta,
                            values=table, values_bit_cap=caps.value_bit_cap)


def _sorted_pairs(pairs) -> list[PowerForm]:
    return sorted_forms([_canonical(root, exp) for root, exp in pairs])


def sub_hypergraph(h: TripleHypergraph, indices: Iterable[int]) -> TripleHypergraph:
    """Induced sub-hypergraph on a vertex subset, reindexed."""
    keep = sorted(set(indices))
    if any(i < 0 or i >= len(h.vertices) for i in keep):
        raise DomainError("vertex index out of range")
    remap = {old: new for new, old in enumerate(keep)}
    edges = tuple(
        (remap[a], remap[b], remap[c])
        for a, b, c in h.edges
        if a in remap and b in remap and c in remap
    )
    return TripleHypergraph(
        vertices=tuple(h.vertices[i] for i in keep), edges=edges, meta=h.meta,
        values=None if h.values is None else tuple(h.values[i] for i in keep),
        values_bit_cap=h.values_bit_cap,
    )


def hypergraph_record(h: TripleHypergraph, caps: Caps = DEFAULT_CAPS) -> dict:
    return {
        "vertices": list(map(_form_record, h.vertices, vertex_values(h, caps))),
        "edges": h.edges,
        "meta": {
            "seeds": [int_text(s) for s in h.meta.seeds],
            "depth": h.meta.depth,
            "caps": {
                "value_bit_cap": h.meta.value_bit_cap,
                "exp_bit_cap": h.meta.exp_bit_cap,
                "vertex_budget": h.meta.vertex_budget,
            },
            "dropped": h.meta.dropped_count,
            "truncated": h.meta.truncated_count,
        },
    }


def hypergraph_from_record(rec: dict, caps: Caps = DEFAULT_CAPS) -> TripleHypergraph:
    """A checked hypergraph record; a vertex past the caps is a CapacityError."""
    try:
        fields = [_powerform_fields(r) for r in rec["vertices"]]
        raw_edges = [tuple(_record_int(i) for i in e) for e in rec["edges"]]
        meta_rec = rec.get("meta", {})
        caps_rec = meta_rec.get("caps", {})
        meta = ClosureMeta(
            seeds=tuple(_record_int(s) for s in meta_rec.get("seeds", [])),
            depth=_record_int(meta_rec.get("depth", 0)),
            value_bit_cap=_record_int(caps_rec.get("value_bit_cap", caps.value_bit_cap)),
            exp_bit_cap=_record_int(caps_rec.get("exp_bit_cap", caps.exp_bit_cap)),
            vertex_budget=_record_int(caps_rec.get("vertex_budget", caps.vertex_budget)),
            dropped_count=_record_int(meta_rec.get("dropped", 0)),
            truncated_count=_record_int(meta_rec.get("truncated", 0)),
        )
        # before the perfect-power test and the order check, which wide vertices make slow
        for root, exp in fields:
            _check_record_caps(root, exp, caps, "hypergraph vertex")
        verts = tuple(PowerForm(root, exp) for root, exp in fields)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed hypergraph record: {exc}") from exc
    if any(compare(x, y) != LT for x, y in zip(verts, verts[1:])):
        raise DomainError("hypergraph vertices must be distinct and ascending")
    for e in raw_edges:
        if len(e) != 3 or any(i < 0 or i >= len(verts) for i in e):
            raise DomainError(f"edge {e} out of range")
        ExpTriple(verts[e[0]], verts[e[1]], verts[e[2]])  # validates the relation
    return TripleHypergraph(vertices=verts, edges=tuple(raw_edges), meta=meta,
                            values=_values(verts, caps.value_bit_cap),
                            values_bit_cap=caps.value_bit_cap)
