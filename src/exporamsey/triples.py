"""Exponential-triple enumeration and exponentiation-closure hypergraphs.

An exponential triple is an ordered triple (a, b, c) with a**b = c and
a, b >= 2.  The closure of a seed set under (a, b) -> a**b gives a finite
universe; its triples are the hyperedges whose k-colorability the coloring
module searches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator, Sequence

from .config import Caps, DEFAULT_CAPS
from .errors import CapacityError, DomainError
from .tower import (
    LT,
    PowerForm,
    _canonical,
    _record_int,
    compare,
    normalize,
    powerform_record,
    powerform_from_record,
    sorted_forms,
    try_evaluate,
)

# Certification ceiling for materializing a triple's exponent part.  Real
# uses keep b within value_bit_cap, which is far below this.
_TRIPLE_B_BITS = 1 << 20
# Largest base a, about the square root of the bound on c, that the integer
# triple kernels take.  Their time, and the memory of `enumerate_triples` and
# of rule counting, grow with the number of bases: a bound of 10**12 (10**6
# bases) is allowed, and 10**20 (10**10 bases) is refused before anything is
# allocated.
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
        if self.c.root != self.a.root:
            raise DomainError(f"not an exponential triple: {self}")
        lo = self.b.exponent * (self.b.root.bit_length() - 1) + 1
        if lo > _TRIPLE_B_BITS:
            raise DomainError(f"triple exponent part too large to certify: {self.b}")
        vb = self.b.root ** self.b.exponent
        if self.c.exponent != self.a.exponent * vb:
            raise DomainError(f"not an exponential triple: {self}")

    def __str__(self) -> str:
        return f"({self.a}, {self.b}, {self.c})"


def _triple(a: PowerForm, b: PowerForm, c: PowerForm) -> ExpTriple:
    """An ExpTriple built without checks, for a triple the caller made by construction."""
    t = object.__new__(ExpTriple)
    object.__setattr__(t, "a", a)
    object.__setattr__(t, "b", b)
    object.__setattr__(t, "c", c)
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


def _edges(verts: Sequence[PowerForm], caps: Caps) -> list[tuple[int, int, int]]:
    """Index triples (a, b, c) over distinct, ascending `verts`, ordered by (c, a, b).

    Only explicitly evaluable b are tried.  Each hit satisfies the triple
    relation by construction, so no `ExpTriple` is built to check it.
    """
    by_root: dict[int, dict[int, int]] = {}  # root -> {exponent: vertex index}
    for i, v in enumerate(verts):
        by_root.setdefault(v.root, {})[v.exponent] = i
    top = {root: max(exps) for root, exps in by_root.items()}
    # ascending by value, so a.exponent * vb grows along the inner loop
    evaluable = [
        (j, vb) for j, v in enumerate(verts) if (vb := try_evaluate(v, caps)) is not None
    ]
    found = []
    for i, a in enumerate(verts):
        same_root, limit = by_root[a.root], top[a.root]
        for j, vb in evaluable:
            exp = a.exponent * vb
            if exp > limit:
                break
            k = same_root.get(exp)
            if k is not None:
                found.append((i, j, k))
    found.sort(key=itemgetter(2))  # stable: ties stay in (a, b) order
    return found


def triples_within(forms: Iterable[PowerForm], caps: Caps = DEFAULT_CAPS) -> list[ExpTriple]:
    """All triples with a, b, c in the set and b explicitly evaluable."""
    verts = sorted_forms(set(forms))
    return [ExpTriple(verts[a], verts[b], verts[c]) for a, b, c in _edges(verts, caps)]


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
    """Vertices in ascending value order; edges as vertex-index triples."""

    vertices: tuple[PowerForm, ...]
    edges: tuple[tuple[int, int, int], ...]
    meta: ClosureMeta

    def edge_forms(self, edge: tuple[int, int, int]) -> ExpTriple:
        ai, bi, ci = edge
        return ExpTriple(self.vertices[ai], self.vertices[bi], self.vertices[ci])


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

    vertices = {normalize(s, caps) for s in seed_list}
    dropped = 0
    truncated = 0
    for _ in range(depth):
        values = [vb for v in vertices if (vb := try_evaluate(v, caps)) is not None]
        new = set()
        for a in vertices:
            for vb in values:
                exp = a.exponent * vb
                if exp.bit_length() > caps.exp_bit_cap:
                    dropped += 1
                    continue
                new.add(_canonical(a.root, exp))
        vertices |= new
        if len(vertices) > caps.vertex_budget:
            kept = sorted_forms(vertices)[: caps.vertex_budget]
            truncated += len(vertices) - len(kept)
            vertices = set(kept)

    verts = tuple(sorted_forms(vertices))
    meta = ClosureMeta(
        seeds=tuple(seed_list),
        depth=depth,
        value_bit_cap=caps.value_bit_cap,
        exp_bit_cap=caps.exp_bit_cap,
        vertex_budget=caps.vertex_budget,
        dropped_count=dropped,
        truncated_count=truncated,
    )
    return TripleHypergraph(vertices=verts, edges=tuple(_edges(verts, caps)), meta=meta)


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
        vertices=tuple(h.vertices[i] for i in keep), edges=edges, meta=h.meta
    )


def hypergraph_record(h: TripleHypergraph, caps: Caps = DEFAULT_CAPS) -> dict:
    return {
        "vertices": [powerform_record(v, caps) for v in h.vertices],
        "edges": [list(e) for e in h.edges],
        "meta": {
            "seeds": [str(s) for s in h.meta.seeds],
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
    try:
        verts = tuple(powerform_from_record(r) for r in rec["vertices"])
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
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed hypergraph record: {exc}") from exc
    if any(compare(x, y) != LT for x, y in zip(verts, verts[1:])):
        raise DomainError("hypergraph vertices must be distinct and ascending")
    for e in raw_edges:
        if len(e) != 3 or any(i < 0 or i >= len(verts) for i in e):
            raise DomainError(f"edge {e} out of range")
        ExpTriple(verts[e[0]], verts[e[1]], verts[e[2]])  # validates the relation
    return TripleHypergraph(vertices=verts, edges=tuple(raw_edges), meta=meta)
