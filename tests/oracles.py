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


def perfect_power_table(limit, min_exp=2):
    """{n: (m, k)} for every n = m**k < limit with k >= min_exp, k maximal,
    by m**k loops.

    m runs upward, so the first (m, k) recorded for n has the smallest m and
    hence the largest k.  The largest k of n is a multiple of any k that n
    has, so a min_exp above 2 drops values but never changes an entry.
    """
    table = {}
    m = 2
    while m ** min_exp < limit:
        v, k = m ** min_exp, min_exp
        while v < limit:
            table.setdefault(v, (m, k))
            v, k = v * m, k + 1
        m += 1
    return table


def power_residues(k, m):
    """{x**k mod m : 0 <= x < m}, the k-th-power residues mod m."""
    return {x ** k % m for x in range(m)}


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


def mono_counts_oracle(colour, bounds):
    """Counts of a colouring at each bound by one direct loop, or the value it fails at.

    `colour(v)` is v's cell, or None where the rule fails.  Triples go in
    (c, a, b) order; each colours a, then b, and c only when a and b agree.
    Returns (failing value, None) at the first None, else (None, counts)
    with one (per-cell dict, rainbow count) per bound, in the order given.
    """
    triples = sorted(triples_oracle(max(bounds, default=0)), key=lambda t: (t[2], t[0], t[1]))
    mono = []  # (c, cell) of each monochromatic triple
    rainbow = []  # c of each other triple
    for a, b, c in triples:
        ca, cb = colour(a), colour(b)
        if ca is None:
            return a, None
        if cb is None:
            return b, None
        if ca == cb:
            cc = colour(c)
            if cc is None:
                return c, None
            if cc == ca:
                mono.append((c, ca))
                continue
        rainbow.append(c)
    counts = []
    for n in bounds:
        cells = {}
        for c, cell in mono:
            if c <= n:
                cells[cell] = cells.get(cell, 0) + 1
        counts.append((cells, sum(1 for c in rainbow if c <= n)))
    return None, counts


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


def dimacs_oracle(pairs, edges, k, value_bit_cap=4096):
    """DIMACS text for the proper k-colorings, one clause at a time.

    Vertices are (root, exponent) pairs, labelled by their value when it
    fits value_bit_cap and "root^exponent" otherwise.  k = 2: variable i+1
    per vertex i and two clauses per edge; k > 2: variables i*k + c + 1,
    at-least-one and pairwise at-most-one clauses per vertex, then per
    edge and color one all-different clause.
    """
    labels = []
    for root, exp in pairs:
        v = _evaluable((root, exp), value_bit_cap)
        labels.append(str(v) if v is not None else f"{root}^{exp}")
    nv = len(pairs)
    lines = []
    clauses = []
    if k == 2:
        for i, label in enumerate(labels):
            lines.append(f"c v {i} {label} var {i + 1}")
        for e in edges:
            vs = sorted(set(e))
            clauses.append(" ".join(str(v + 1) for v in vs) + " 0")
            clauses.append(" ".join(str(-(v + 1)) for v in vs) + " 0")
        lines.append(f"p cnf {nv} {len(clauses)}")
    else:
        for i, label in enumerate(labels):
            first = i * k + 1
            lines.append(f"c v {i} {label} vars {first}..{first + k - 1}")
        for i in range(nv):
            base = i * k + 1
            clauses.append(" ".join(str(base + c) for c in range(k)) + " 0")
            for c1 in range(k):
                for c2 in range(c1 + 1, k):
                    clauses.append(f"-{base + c1} -{base + c2} 0")
        for e in edges:
            vs = sorted(set(e))
            for c in range(k):
                clauses.append(" ".join(str(-(v * k + c + 1)) for v in vs) + " 0")
        lines.append(f"p cnf {nv * k} {len(clauses)}")
    return "\n".join(lines + clauses) + "\n"


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


def _power_past(base, exp, cap):
    """base**exp when it is at most cap; otherwise some value past cap, built by
    multiplying up only until the product passes it."""
    if base < 2:
        return 1 if exp == 0 else base
    v = 1
    for _ in range(exp):
        v *= base
        if v > cap:
            break
    return v


def transform_oracle(lo, hi, members, op, n):
    """(lo, hi, members) of the preimage of members in [lo, hi] under shift,
    divide, log or root by n, or None for an (op, n) with no preimage map.

    Steps m up from 0 while its image is at most hi; the window is the m whose
    image is at least lo, and an empty one is (0, 0, set()).
    """
    if op == "shift" and n >= 0:
        image = lambda m: m + n
    elif op == "divide" and n >= 1:
        image = lambda m: m * n
    elif op == "log" and n >= 2:
        image = lambda m: _power_past(n, m, hi)
    elif op == "root" and n >= 1:
        image = lambda m: _power_past(m, n, hi)
    else:
        return None
    window, m = [], 0
    while image(m) <= hi:
        if image(m) >= lo:
            window.append(m)
        m += 1
    if not window:
        return 0, 0, set()
    return window[0], window[-1], {m for m in window if image(m) in members}


class _BudgetSpent(Exception):
    pass


def seed_search_oracle(members, m, multiplicative, budget):
    """(status, witness, examined) of the lexicographically first m-set X of
    members whose subset sums (products) all lie in members, by plain
    recursive depth-first search.

    Each candidate tested counts once in `examined`; a prefix whose own
    subset sums leave the set is not extended.  Testing candidate budget + 1
    stops the search: ("inconclusive", None, budget + 1).
    """
    xs = sorted(set(members))
    inside = set(xs)
    closed = fp_oracle if multiplicative else fs_oracle
    examined = 0

    def extend(prefix, start):
        nonlocal examined
        if len(prefix) == m:
            return prefix
        for i in range(start, len(xs)):
            examined += 1
            if examined > budget:
                raise _BudgetSpent
            cand = prefix + [xs[i]]
            if closed(cand) <= inside:
                got = extend(cand, i + 1)
                if got is not None:
                    return got
        return None

    try:
        got = extend([], 0)
    except _BudgetSpent:
        return "inconclusive", None, budget + 1
    if got is None:
        return "none", None, examined
    return "found", tuple(got), examined


def _max_tower_value(prefix, multiplicative, value_bit_cap=4096):
    """Largest value of the FE2 (or FE1) level of prefix at its top level, or
    None when prefix is no strictly increasing seed sequence >= 2 or that
    value has more than value_bit_cap bits."""
    if any(x < 2 for x in prefix) or any(a >= b for a, b in zip(prefix, prefix[1:])):
        return None
    oracle = fe2_oracle if multiplicative else fe1_oracle
    pairs, _ = oracle(list(prefix), len(prefix) - 1, value_bit_cap)
    if any(_bits_of_pow(b, e) is None for b, e in pairs):
        return None
    top = max(b ** e for b, e in pairs)
    return top if top.bit_length() <= value_bit_cap else None


class _Undecidable(Exception):
    pass


def block_search_oracle(member, window, ys, f_spec, steps, multiplicative, budget,
                        query_bit_limit=1 << 22):
    """(status, explored, reason, x, blocks, level_max) of the first block
    choice found by plain depth-first search, every candidate checked afresh.

    Blocks are index tuples of size 1..4 in lexicographic order, each
    starting after the previous block ends; x_j sums (or multiplies) ys over
    block j.  Block j is kept when, for every F of chosen indices with
    largest j, v the sum (product) over F and l = f(x before min F):
    t**v in A for t = 2..l (v**t for t = 1..l), asked with F in mask order
    and t ascending.  The first non-member rejects the block; a query met
    before it whose exponent times its base's bit length passes
    query_bit_limit, or whose value lies outside the window, makes the
    block undecidable.  f is "constant:C" or
    "max" (the largest tower value over the x before; 1 for none, undefined
    frames counted as undecidable too).  Candidate budget + 1 stops the
    search as inconclusive.
    """
    blocks_all = sorted(c for r in range(1, 5) for c in combinations(range(len(ys)), r))
    explored = 0
    undecidable = 0

    def f_of(prefix):
        if f_spec != "max":
            return int(f_spec.split(":")[1])
        if not prefix:
            return 1
        return _max_tower_value(prefix, multiplicative)

    def ask(v, t):
        base, exp = (v, t) if multiplicative else (t, v)
        if exp * base.bit_length() > query_bit_limit:
            raise _Undecidable
        n = base ** exp
        if window is not None and not window[0] <= n <= window[1]:
            raise _Undecidable
        return member(n)

    def holds(xs, fs):
        j = len(xs) - 1
        for mask in range(1 << j):
            family = [i for i in range(j) if mask >> i & 1] + [j]
            v = 1 if multiplicative else 0
            for i in family:
                v = v * xs[i] if multiplicative else v + xs[i]
            for t in range(1 if multiplicative else 2, fs[family[0]] + 1):
                if not ask(v, t):
                    return False
        return True

    def extend(blocks, xs, fs):
        nonlocal explored, undecidable
        if len(blocks) == steps:
            return blocks, xs, fs
        start = blocks[-1][-1] + 1 if blocks else 0
        f = f_of(xs)
        if f is None:
            undecidable += 1
            return None
        for block in blocks_all:
            if block[0] < start:
                continue
            explored += 1
            if explored > budget:
                raise _BudgetSpent
            x = 1 if multiplicative else 0
            for i in block:
                x = x * ys[i] if multiplicative else x + ys[i]
            try:
                ok = holds(xs + [x], fs + [f])
            except _Undecidable:
                undecidable += 1
                continue
            if ok:
                got = extend(blocks + [block], xs + [x], fs + [f])
                if got is not None:
                    return got
        return None

    try:
        got = extend([], [], [])
    except _BudgetSpent:
        return "inconclusive", budget + 1, "budget exhausted", None, None, None
    if got is None:
        if undecidable:
            return ("inconclusive", explored, f"oracle range on {undecidable} candidates",
                    None, None, None)
        return "failure", explored, "no valid block choice", None, None, None
    blocks, xs, fs = got
    return "success", explored, "", tuple(xs), tuple(blocks), tuple(fs)


class RuleOracleError(Exception):
    """A rule oracle evaluation error; `kind` names which one."""

    def __init__(self, kind):
        super().__init__(kind)
        self.kind = kind


def _truncated_quotient(x, y):
    """x / y rounded toward zero, from the flooring quotient."""
    if y == 0:
        raise RuleOracleError("division by zero")
    q = x // y
    return q + 1 if q < 0 and q * y != x else q


_RULE_ORACLE_OPS = {
    "+": lambda x, y: x + y,
    "-": lambda x, y: x - y,
    "*": lambda x, y: x * y,
    "/": _truncated_quotient,
    "%": lambda x, y: x - y * _truncated_quotient(x, y),
    "==": lambda x, y: int(x == y),
    "!=": lambda x, y: int(x != y),
    "<": lambda x, y: int(x < y),
    "<=": lambda x, y: int(x <= y),
    ">": lambda x, y: int(x > y),
    ">=": lambda x, y: int(x >= y),
}


def rule_oracle(tree, n):
    """Value at n of a colouring-rule tree, by direct recursion on tuples.

    Trees are ("n",), ("const", c), (op, x) for op in neg/not/ilog2,
    (op, x, y) for the binary operators, "and", "or" and "ipow", and
    ("if", c, x, y).  Operands go left to right; "and", "or" and "if" skip
    what they do not need.  Errors raise RuleOracleError with kind
    "division by zero", "ilog2", "ipow exponent" or "ipow size": ipow(a, b)
    refuses b > 2**20 and bitlen(a) * max(b, 1) > 2**21.
    """
    op, args = tree[0], tree[1:]
    if op == "n":
        return n
    if op == "const":
        return args[0]
    if op == "if":
        return rule_oracle(args[1] if rule_oracle(args[0], n) != 0 else args[2], n)
    if op in ("and", "or"):
        first = rule_oracle(args[0], n) != 0
        if first == (op == "or"):  # decided by the left operand
            return int(first)
        return int(rule_oracle(args[1], n) != 0)
    vals = [rule_oracle(t, n) for t in args]
    if op == "neg":
        return -vals[0]
    if op == "not":
        return int(vals[0] == 0)
    if op == "ilog2":
        if vals[0] < 1:
            raise RuleOracleError("ilog2")
        return len(bin(vals[0])) - 3
    x, y = vals
    if op == "ipow":
        if y < 0:
            raise RuleOracleError("ipow exponent")
        if y > 2 ** 20 or len(bin(abs(x))[2:].lstrip("0")) * max(y, 1) > 2 ** 21:
            raise RuleOracleError("ipow size")
        return x ** y
    return _RULE_ORACLE_OPS[op](x, y)


class _OutsideWindow(Exception):
    pass


def _set_member(tree, n):
    op, args = tree[0], tree[1:]
    if op == "window":
        lo, hi, inner = args
        if not lo <= n <= hi:
            raise _OutsideWindow
        return _set_member(inner, n)
    if op == "residue":
        modulus, residue = args
        return n % modulus == residue
    if op == "explicit":
        return n in args[0]
    if op == "rule":
        return rule_oracle(args[0], n) % 2 == 1
    if op == "complement":
        return not _set_member(args[0], n)
    raise ValueError(f"unknown set node {op!r}")


def set_spec_oracle(tree, n):
    """Membership at n of a set-spec tree, or (kind, n) when asking fails.

    Trees are ("residue", modulus, residue), ("explicit", members),
    ("rule", rule_tree) for a rule tree of `rule_oracle`, member iff its
    value mod 2 is 1, ("complement", tree) and ("window", lo, hi, tree),
    which leaves n outside [lo, hi] undecidable.  A window is checked
    before the tree inside it.  The kinds are "range", for n outside a
    window, and "rule", for a rule evaluation error.
    """
    try:
        return _set_member(tree, n)
    except _OutsideWindow:
        return "range", n
    except RuleOracleError:
        return "rule", n


_RULE_ORACLE_KEYWORDS = {"n", "and", "or", "not", "if", "ilog2", "ipow"}


def rule_tokens_oracle(source):
    """Tokens of a colouring rule by a character-at-a-time scan, or
    ("error", message, offset) at the first character that starts none.

    Tokens are (kind, text, offset): "int" for a run of str.isdecimal
    characters, "word" for a keyword (a letter or "_", then str.isalnum
    characters or "_"), "op" for an operator or bracket, and a final
    ("eof", "", len(source)).  str.isspace characters separate tokens.
    """
    tokens = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        j = i + 1
        if ch.isdecimal():
            while j < len(source) and source[j].isdecimal():
                j += 1
            tokens.append(("int", source[i:j], i))
        elif ch.isalpha() or ch == "_":
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            if source[i:j] not in _RULE_ORACLE_KEYWORDS:
                return "error", f"unknown identifier {source[i:j]!r}", i
            tokens.append(("word", source[i:j], i))
        elif source[i:i + 2] in ("==", "!=", "<=", ">="):
            j = i + 2
            tokens.append(("op", source[i:j], i))
        elif ch in "+-*/%<>(),":
            tokens.append(("op", ch, i))
        elif ch in "=!":
            return "error", f"incomplete operator {ch!r}", i
        else:
            return "error", f"unexpected character {ch!r}", i
        i = j
    tokens.append(("eof", "", len(source)))
    return tokens
