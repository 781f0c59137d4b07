"""Independent brute-force oracles the production code is checked against.

Everything here is written straight from the defining formulas, on plain
integers or (base, exponent) pairs, sharing no code with the package.
"""

from itertools import combinations, product


def fs_oracle(xs):
    """Subset sums by explicit enumeration of all non-empty subsets."""
    xs = sorted(set(xs))
    out = set()
    for r in range(1, len(xs) + 1):
        for comb in combinations(xs, r):
            out.add(sum(comb))
    return out


def fp_oracle(xs):
    xs = sorted(set(xs))
    out = set()
    for r in range(1, len(xs) + 1):
        for comb in combinations(xs, r):
            p = 1
            for v in comb:
                p *= v
            out.add(p)
    return out


def perfect_power_oracle(n):
    """(m, k) with m**k == n, k as large as possible, by full double loop."""
    best = None
    m = 2
    while m * m <= n:
        v = m * m
        k = 2
        while v <= n:
            if v == n and (best is None or k > best[1]):
                best = (m, k)
            v *= m
            k += 1
        m += 1
    return best


def perfect_power_table(limit):
    """{n: (m, k)} for every perfect power n < limit, k maximal, by m**k loops.

    m runs upward, so the first (m, k) recorded for n has the smallest m and
    hence the largest k.
    """
    table = {}
    m = 2
    while m * m < limit:
        v, k = m * m, 2
        while v < limit:
            table.setdefault(v, (m, k))
            v, k = v * m, k + 1
        m += 1
    return table


def canonical_pair(base, exp):
    """Canonical (root, exponent) of base**exp via the brute-force oracle."""
    hit = perfect_power_oracle(base)
    if hit is None:
        return (base, exp)
    return (hit[0], hit[1] * exp)


def _bits_of_pow(base, exp):
    """Bit length of base**exp, or None when clearly beyond 2**24 bits."""
    if exp * (base.bit_length() - 1) + 1 > (1 << 24):
        return None
    return (base ** exp).bit_length()


def _evaluable(pair, value_bit_cap):
    base, exp = pair
    if exp * (base.bit_length() - 1) + 1 > value_bit_cap:
        return None
    v = base ** exp
    return v if v.bit_length() <= value_bit_cap else None


def fe1_oracle(seeds, level, value_bit_cap=4096, exp_bit_cap=65536):
    """Type-I tower recursion on canonical pairs; returns (set, dropped)."""
    elements = {canonical_pair(seeds[0], 1)}
    dropped = 0
    for i in range(1, level + 1):
        x = seeds[i]
        new = set()
        for (b, e) in elements:
            new_exp = e * x
            if new_exp.bit_length() > exp_bit_cap:
                dropped += 1
                continue
            new.add((b, new_exp))
        new.add(canonical_pair(x, 1))
        elements |= new
    return elements, dropped


def fe2_oracle(seeds, level, value_bit_cap=4096, exp_bit_cap=65536):
    """Type-II tower recursion on canonical pairs; returns (set, dropped)."""
    elements = {canonical_pair(seeds[0], 1)}
    dropped = 0
    for i in range(1, level + 1):
        x = seeds[i]
        root, k = canonical_pair(x, 1)
        new = set()
        for pair in elements:
            v = _evaluable(pair, value_bit_cap)
            if v is None:
                dropped += 1
                continue
            new_exp = k * v
            if new_exp.bit_length() > exp_bit_cap:
                dropped += 1
                continue
            new.add((root, new_exp))
        new.add((root, k))
        elements |= new
    return elements, dropped


def triples_oracle(n):
    """All exponential triples (a, b, c), c <= n, by a b-outer double loop."""
    out = set()
    b = 2
    while 2 ** b <= n:
        a = 2
        while a ** b <= n:
            out.add((a, b, a ** b))
            a += 1
        b += 1
    return out


def closure_edges_oracle(pairs, value_bit_cap=4096):
    """Index triples (a, b, c) with a**value(b) == c over (root, exp) vertex pairs.

    Every pair (a, b) is tried, b only when its value fits value_bit_cap;
    c is found by canonicalizing (root_a, exp_a * value(b)) with the
    brute-force perfect-power oracle.  Sorted by (c, a, b).
    """
    index = {canonical_pair(r, e): i for i, (r, e) in enumerate(pairs)}
    values = [_evaluable(p, value_bit_cap) for p in pairs]
    out = []
    for ai, (ra, ea) in enumerate(pairs):
        for bi, vb in enumerate(values):
            if vb is None:
                continue
            ci = index.get(canonical_pair(ra, ea * vb))
            if ci is not None:
                out.append((ai, bi, ci))
    return sorted(out, key=lambda t: (t[2], t[0], t[1]))


def parse_dimacs(text):
    """(num_vars, clauses, comment var map 'vertex index -> variable')."""
    num_vars = None
    num_clauses = None
    clauses = []
    varmap = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("c "):
            parts = line.split()
            # "c v <idx> <label> var <num>" or "c v <idx> <label> vars <a>..<b>"
            if len(parts) >= 6 and parts[1] == "v" and parts[4] == "var":
                varmap[int(parts[2])] = int(parts[5])
            continue
        if line.startswith("p cnf"):
            _, _, nv, nc = line.split()
            num_vars, num_clauses = int(nv), int(nc)
            continue
        lits = [int(v) for v in line.split()]
        assert lits[-1] == 0
        clauses.append(lits[:-1])
    assert num_clauses == len(clauses)
    return num_vars, clauses, varmap


def cnf_satisfied(clauses, true_vars):
    """Does the assignment (set of true variable numbers) satisfy the CNF?"""
    for clause in clauses:
        if not any((lit > 0) == (abs(lit) in true_vars) for lit in clause):
            return False
    return True


def first_proper_coloring(n, edges, k):
    """Lexicographically first proper k-coloring, or None when there is none.

    Vertices are ranked by (-degree, index), degree counting the edges whose
    vertex set holds the vertex; colorings are listed as tuples of colors in
    that rank order and scanned in lexicographic order.  A coloring is proper
    when no edge's vertex set is one color.
    """
    deg = [0] * n
    for e in edges:
        for v in set(e):
            deg[v] += 1
    order = sorted(range(n), key=lambda v: (-deg[v], v))
    vertex_sets = [set(e) for e in edges]
    for ranked in product(range(k), repeat=n):
        colors = [0] * n
        for v, c in zip(order, ranked):
            colors[v] = c
        if all(len({colors[v] for v in s}) > 1 for s in vertex_sets):
            return colors
    return None


def geometric_progressions_oracle(members, hi, length):
    """Triple loop over (start, ratio, index) with no early exits."""
    out = []
    for start in sorted(members):
        if start < 1:
            continue
        for h in range(2, hi + 2):
            if start * h ** (length - 1) > hi:
                break
            if all(start * h ** i in members for i in range(length)):
                out.append((start, h))
    return out


def power_progressions_oracle(members, length):
    out = []
    for h in sorted(members):
        if h >= 2 and all(h ** i in members for i in range(1, length + 1)):
            out.append(h)
    return out
