"""Window transforms, seed searches, IP* verdicts, progression detectors."""

import inspect
import random
import sys
import tracemalloc

import pytest

from exporamsey import (
    Caps,
    DomainError,
    IpStarVerdict,
    OracleRangeError,
    RuleEvaluationError,
    RuleSyntaxError,
    SetSpec,
    WorkbenchError,
    find_fp_seed,
    find_fs_seed,
    find_geometric_progressions,
    find_power_progressions,
    is_ip_star_window,
    parse_set_spec,
    transform,
    window_set,
)
from exporamsey import rules
from exporamsey.ipsets import windowset_record
from exporamsey.tower import ikth_root

from oracles import (
    fp_oracle,
    fs_oracle,
    geometric_progressions_oracle,
    power_progressions_oracle,
    seed_search_oracle,
    set_spec_oracle,
)
from itertools import combinations


def test_transform_examples():
    a = window_set(1, 16, {4, 8, 9})
    out = transform(a, "log", 2)
    assert out.members == {2, 3}
    assert (out.lo, out.hi) == (0, 4)
    b = transform(window_set(1, 10, {5, 7}), "shift", 3)
    assert b.members == {2, 4}
    assert (b.lo, b.hi) == (0, 7)
    c = transform(window_set(1, 16, {4, 9, 16}), "root", 2)
    assert c.members == {2, 3, 4}
    assert (c.lo, c.hi) == (1, 4)
    d = transform(window_set(2, 20, {4, 8, 12}), "divide", 4)
    assert d.members == {1, 2, 3}
    assert (d.lo, d.hi) == (1, 5)
    # a root order past hi's bit length leaves the window [1, 1]
    e = transform(window_set(1, 100, {4}), "root", 10 ** 9)
    assert (e.lo, e.hi, e.members) == (1, 1, frozenset())
    assert transform(window_set(1, 100, {1, 4}), "root", 10 ** 9).members == {1}


def test_transform_side_conditions():
    a = window_set(1, 10, {2})
    with pytest.raises(DomainError):
        transform(a, "log", 1)
    with pytest.raises(DomainError):
        transform(a, "divide", 0)
    with pytest.raises(DomainError):
        transform(a, "root", 0)
    with pytest.raises(DomainError):
        transform(a, "mystery", 2)


def test_transform_collapsed_window():
    a = window_set(1, 5, {2, 3})
    out = transform(a, "shift", 10)
    assert out.members == frozenset()


def test_transform_definitional_soundness_random():
    rng = random.Random(47)
    for _ in range(100):
        hi = rng.randrange(2, 2000)
        lo = rng.randrange(0, hi)
        members = {rng.randrange(lo, hi + 1) for _ in range(rng.randrange(0, 40))}
        a = window_set(lo, hi, members)
        n_shift = rng.randrange(0, 30)
        out = transform(a, "shift", n_shift)
        for m in range(out.lo, out.hi + 1):
            assert (m in out.members) == (m + n_shift in a.members)
        n_div = rng.randrange(1, 10)
        out = transform(a, "divide", n_div)
        for m in range(out.lo, out.hi + 1):
            assert (m in out.members) == (m * n_div in a.members)
        n_log = rng.randrange(2, 5)
        out = transform(a, "log", n_log)
        for m in range(out.lo, out.hi + 1):
            assert (m in out.members) == (n_log ** m in a.members)
        n_root = rng.randrange(1, 5)
        out = transform(a, "root", n_root)
        for m in range(out.lo, out.hi + 1):
            assert (m in out.members) == (m ** n_root in a.members)


def test_transform_inverse_and_identity():
    rng = random.Random(53)
    for _ in range(50):
        hi = rng.randrange(5, 500)
        lo = rng.randrange(0, hi)
        members = frozenset(rng.randrange(lo, hi + 1) for _ in range(20))
        a = window_set(lo, hi, members)
        n = rng.randrange(0, 20)
        shifted = transform(a, "shift", n)
        # shifting members back recovers exactly the part inside the window
        assert {m + n for m in shifted.members} == {
            v for v in a.members if shifted.lo + n <= v <= shifted.hi + n
        }
        assert transform(a, "root", 1).members == a.members
        assert transform(a, "divide", 1).members == a.members


def test_find_fs_seed_examples():
    # full window [1, 7]: the oracle puts {1, 2, 3} first in lexicographic order
    full = window_set(1, 7, range(1, 8))
    got = find_fs_seed(full, 3)
    assert got.status == "found"
    assert got.witness == (1, 2, 3)
    assert fs_oracle(got.witness) <= full.members
    assert find_fs_seed(window_set(1, 3, {1, 3}), 2).status == "none"
    single = find_fs_seed(window_set(1, 9, {5}), 1)
    assert single.witness == (5,)


def test_find_fp_seed_examples():
    got = find_fp_seed(window_set(2, 6, {2, 3, 6}), 2)
    assert got.witness == (2, 3)
    assert fp_oracle(got.witness) <= {2, 3, 6}
    assert find_fp_seed(window_set(2, 7, {2, 3, 7}), 2).status == "none"
    assert find_fp_seed(window_set(4, 4, {4}), 1).witness == (4,)


def test_seed_search_against_full_enumeration():
    rng = random.Random(59)
    for _ in range(40):
        hi = rng.randrange(4, 60)
        members = sorted({rng.randrange(1, hi + 1) for _ in range(rng.randrange(2, 20))})
        a = window_set(1, hi, members)
        for m in (1, 2, 3):
            got = find_fs_seed(a, m)
            want = next(
                (x for x in combinations(members, m) if fs_oracle(x) <= a.members),
                None,
            )
            if want is None:
                assert got.status == "none"
            else:
                assert got.witness == want
            got_p = find_fp_seed(a, m)
            want_p = next(
                (x for x in combinations(members, m) if fp_oracle(x) <= a.members),
                None,
            )
            if want_p is None:
                assert got_p.status == "none"
            else:
                assert got_p.witness == want_p


def test_seed_search_against_oracle():
    """Status, witness and examined count equal a plain recursive search's."""
    rng = random.Random(61)
    specs = ["residue:2:1", "residue:3:0", "residue:4:1", "rule:n % 3", "rule:(n / 2) % 2",
             "rule:ilog2(n + 1) % 2", "all"]
    windows = []
    for _ in range(24):
        lo = rng.choice([0, 1, 2, 5])
        hi = lo + rng.randrange(3, 50)
        spec = parse_set_spec(rng.choice(specs))
        dense = spec.materialize(lo, hi).members
        windows.append((lo, hi, dense))
        windows.append((lo, hi, frozenset(range(lo, hi + 1)) - dense))
    for i in range(16):
        hi = rng.randrange(10, 400)
        sparse = {rng.randrange(hi + 1) for _ in range(rng.randrange(0, 9))}
        windows.append((0, hi, sparse | {0, 1} if i % 2 else sparse))
    for lo, hi, members in windows:
        a = window_set(lo, hi, members)
        for m in range(1, 7):
            for multiplicative in (False, True):
                search = find_fp_seed if multiplicative else find_fs_seed
                for budget in (1, 5, 50, 500, 10**6):
                    got = search(a, m, Caps(search_budget=budget))
                    want = seed_search_oracle(members, m, multiplicative, budget)
                    assert (got.status, got.witness, got.examined) == want, (lo, hi, m, budget)


def test_seed_search_sparse_window_is_sized_by_members():
    """Candidate masks run over member ranks, so a 10**30-wide window costs nothing."""
    a = window_set(1, 10**30, {1, 2, 3, 10**29})
    tracemalloc.start()
    try:
        fs = [find_fs_seed(a, m) for m in (1, 2, 3)]
        fp = [find_fp_seed(a, m) for m in (1, 2, 3)]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(r.status, r.witness, r.examined) for r in fs] == [
        ("found", (1,), 1), ("found", (1, 2), 2), ("none", None, 12)]
    assert [(r.status, r.witness, r.examined) for r in fp] == [
        ("found", (1,), 1), ("found", (1, 2), 2), ("none", None, 13)]
    assert peak < 1_000_000


def test_seed_search_budget_inconclusive():
    a = window_set(1, 40, range(1, 41))
    tight = Caps(search_budget=3)
    out = find_fs_seed(a, 4, tight)
    assert out.status == "inconclusive"
    with pytest.raises(DomainError):
        find_fs_seed(a, 0)


def test_seed_search_memory_stays_flat():
    """Every level of the search shares one FS set, so memory stays near the set's own size."""
    m = 100
    a = window_set(1, m * (m + 1) // 2, range(1, m * (m + 1) // 2 + 1))
    tracemalloc.start()
    try:
        out = find_fs_seed(a, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.witness == tuple(range(1, m + 1)) and out.examined == m
    assert peak < 8_000_000


def test_seed_search_depth_does_not_recurse():
    """A seed larger than the recursion limit: the search keeps an explicit stack."""
    m = 300
    full = window_set(1, m * (m + 1) // 2, range(1, m * (m + 1) // 2 + 1))
    # x_0 = 1 fails with every later member (1 + even is odd), so the search
    # backtracks once and then takes (2, 4, ..., 2m)
    evens = window_set(1, 2 * m * m, {1} | set(range(2, 2 * m * m + 1, 2)))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        out = find_fs_seed(full, m)
        even = find_fs_seed(evens, m)
        tight = find_fs_seed(full, m, Caps(search_budget=m - 1))
    finally:
        sys.setrecursionlimit(limit)
    assert (out.status, out.witness, out.examined) == ("found", tuple(range(1, m + 1)), m)
    assert even.witness == tuple(range(2, 2 * m + 1, 2))
    assert even.examined == 1 + m * m + m
    assert (tight.status, tight.examined) == ("inconclusive", m)


def test_ip_star_examples():
    evens = SetSpec.residues(2, 0)
    # the complement (odds) has no all-odd FS pair: odd + odd is even
    out = is_ip_star_window(evens, "additive", 2, (1, 100))
    assert out.verdict == "holds"
    alln = SetSpec.residues(1, 0)
    assert is_ip_star_window(alln, "additive", 3, (1, 50)).verdict == "holds"
    assert is_ip_star_window(alln, "multiplicative", 2, (1, 50)).verdict == "holds"
    odds = SetSpec.residues(2, 1)
    out = is_ip_star_window(odds, "multiplicative", 2, (1, 50))
    assert out.verdict == "fails"
    assert out.witness == (2, 4)
    assert all(v % 2 == 0 for v in fp_oracle(out.witness))


def test_ip_star_witness_inside_complement():
    spec = SetSpec.from_rule("n % 3 == 0")
    out = is_ip_star_window(spec, "additive", 2, (1, 60))
    if out.verdict == "fails":
        for v in fs_oracle(out.witness):
            assert not spec.contains(v)


def test_ip_star_inconclusive_on_budget():
    alln = SetSpec.explicit(set())  # complement is the whole window
    tight = Caps(search_budget=2)
    out = is_ip_star_window(alln, "additive", 3, (1, 100), tight)
    assert out.verdict == "inconclusive"


def test_geometric_progressions_examples():
    assert find_geometric_progressions(window_set(3, 24, {3, 6, 12, 24}), 4) == [(3, 2)]
    assert find_geometric_progressions(window_set(5, 5, {5}), 2) == []
    assert find_geometric_progressions(window_set(2, 16, {2, 4, 8, 16}), 3) == [(2, 2), (4, 2)]


def test_geometric_progressions_length_boundary():
    # 1, 2, ..., 2**(b - 1) fits under hi with b = hi.bit_length(); one term more does not
    for hi in (1, 2, 3, 15, 16, 17, 3000, 2 ** 12):
        members = set(range(1, hi + 1))
        a = window_set(1, hi, members)
        for length in range(2, hi.bit_length() + 3):
            assert find_geometric_progressions(a, length) == geometric_progressions_oracle(
                members, hi, length)
    assert find_geometric_progressions(window_set(1, 3000, set(range(1, 3001))), 10 ** 6) == []


def test_power_progressions_examples():
    assert find_power_progressions(window_set(2, 8, {2, 4, 8}), 3) == [2]
    assert find_power_progressions(window_set(3, 9, {3, 9}), 3) == []
    assert find_power_progressions(window_set(2, 27, {2, 3, 4, 9, 27}), 3) == [3]


def test_progressions_large_window_against_oracle():
    rng = random.Random(101)
    hi = 10 ** 5
    members = {rng.randrange(1, hi + 1) for _ in range(300)}
    members |= {7 * 3 ** i for i in range(6)} | {2 ** i for i in range(1, 10)}
    a = window_set(1, hi, members)
    for k in (2, 3, 4):
        assert find_geometric_progressions(a, k) == geometric_progressions_oracle(
            members, hi, k
        )
        assert find_power_progressions(a, k) == power_progressions_oracle(members, k)


def test_progressions_against_oracle():
    rng = random.Random(61)
    for _ in range(30):
        hi = rng.randrange(10, 3000)
        members = {rng.randrange(1, hi + 1) for _ in range(rng.randrange(5, 80))}
        # salt in real progressions so matches are not vanishingly rare
        a0, h0 = rng.randrange(1, 5), rng.randrange(2, 4)
        members |= {a0 * h0 ** i for i in range(4) if a0 * h0 ** i <= hi}
        a = window_set(1, hi, members)
        k = rng.randrange(2, 5)
        assert find_geometric_progressions(a, k) == geometric_progressions_oracle(
            members, hi, k
        )
        assert find_power_progressions(a, k) == power_progressions_oracle(members, k)


def test_progressions_random_windows_against_oracle():
    """Windows starting at 0, 1, 2 and above the base bound hi**(1/length)."""
    rng = random.Random(67)
    for _ in range(60):
        hi = rng.choice((rng.randrange(1, 200), rng.randrange(200, 10 ** 5 + 1)))
        length = rng.randrange(2, 7)
        lo = rng.choice((0, 1, 2, min(ikth_root(hi, length) + rng.randrange(1, 4), hi)))
        members = set(rng.sample(range(lo, hi + 1), min(hi + 1 - lo, rng.randrange(20, 2000))))
        # salt in real progressions so matches are not vanishingly rare
        for _ in range(5):
            start, h = rng.randrange(1, 10), rng.randrange(2, 8)
            members |= {start * h ** i for i in range(length + 1)
                        if lo <= start * h ** i <= hi}
            members |= {h ** i for i in range(1, length + 1) if lo <= h ** i <= hi}
        a = window_set(lo, hi, members)
        assert find_geometric_progressions(a, length) == geometric_progressions_oracle(
            members, hi, length)
        assert find_power_progressions(a, length) == power_progressions_oracle(members, length)
    full = window_set(0, 3000, range(3001))
    for length in (10 ** 6, 10 ** 30):
        assert find_geometric_progressions(full, length) == []
        assert find_power_progressions(full, length) == []
    # bases past the root bound are members but have no power in the window
    assert find_power_progressions(window_set(2, 100, {2, 4, 8, 50, 100}), 2) == [2]
    # a few members in a huge window: the scan runs over the members, not the bounds
    sparse = window_set(0, 10 ** 30, {4, 16, 64, 10 ** 20})
    assert find_power_progressions(sparse, 3) == [4]
    sparse = window_set(0, 10 ** 30, {4, 16, 64, 10 ** 5, 10 ** 10, 10 ** 15, 10 ** 20})
    assert find_geometric_progressions(sparse, 3) == [(4, 4), (10 ** 5, 10 ** 5),
                                                      (10 ** 10, 10 ** 5)]
    sparse = window_set(0, 10 ** 12, {3, 6, 12, 24, 48, 96, 10 ** 11})
    assert find_geometric_progressions(sparse, 6) == [(3, 2)]


def test_set_spec_kinds():
    explicit = SetSpec.explicit({2, 4, 8})
    assert explicit.contains(4) and not explicit.contains(5)
    res = SetSpec.residues(3, 1)
    assert res.contains(7) and not res.contains(9)
    rule = SetSpec.from_rule("n % 2 == 1")
    assert rule.contains(7) and not rule.contains(8)
    comp = SetSpec.complement_of(res)
    assert comp.contains(9) and not comp.contains(7)
    with pytest.raises(DomainError):
        SetSpec.residues(0, 0)


def test_set_spec_window_enforced():
    spec = SetSpec.residues(2, 0, window=(1, 100))
    assert spec.contains(50)
    with pytest.raises(OracleRangeError):
        spec.contains(101)
    mat = spec.materialize(1, 20)
    assert mat.members == {n for n in range(1, 21) if n % 2 == 0}


@pytest.mark.parametrize("spec, lo, hi, kind, message", [
    ("all", -1, 5, DomainError, "membership is defined on the naturals"),
    ("all", 5, 2, DomainError, "invalid window [5, 2]"),
    ("all", -1, -5, DomainError, "invalid window [-1, -5]"),
    ("residue:2:0@10..20", 5, 15, OracleRangeError, "membership undecidable for 5"),
    ("residue:2:0@10..20", 12, 30, OracleRangeError, "membership undecidable for 21"),
    ("residue:2:0@10..20", 25, 30, OracleRangeError, "membership undecidable for 25"),
    ("residue:2:0@10..5", 7, 8, OracleRangeError, "membership undecidable for 7"),
    # the rule fails at n = 30, inside the window, before the window ends at 35
    ("rule:n / (n - 30)@1..35", 2, 40, RuleEvaluationError,
     "rule evaluation failed at n=30: division by zero"),
    ("complement:rule:n / (n - 30)", 2, 40, RuleEvaluationError,
     "rule evaluation failed at n=30: division by zero"),
    # the inner window is asked through the complement, whichever is narrower
    ("complement:residue:2:0@1..10@1..100", 1, 50, OracleRangeError,
     "membership undecidable for 11"),
    ("complement:residue:2:0@1..10@1..100", 1, 200, OracleRangeError,
     "membership undecidable for 11"),
    ("complement:residue:2:0@1..100@1..10", 1, 50, OracleRangeError,
     "membership undecidable for 11"),
])
def test_materialize_errors_pinned(spec, lo, hi, kind, message):
    spec = parse_set_spec(spec)
    # the IP* probe builds its complement from the same scan
    for ask in (lambda: spec.materialize(lo, hi),
                lambda: is_ip_star_window(spec, "additive", 1, (lo, hi))):
        with pytest.raises(kind) as err:
            ask()
        assert type(err.value) is kind and str(err.value) == message


def test_materialize_matches_contains():
    for text, lo, hi in (("residue:3:1@4..30", 4, 30), ("rule:n % 5 == 2", 0, 40),
                         ("complement:explicit:2,3,9@0..9", 0, 9), ("all", 7, 7)):
        spec = parse_set_spec(text)
        a = spec.materialize(lo, hi)
        assert (a.lo, a.hi) == (lo, hi)
        assert a.members == {n for n in range(lo, hi + 1) if spec.contains(n)}


def _random_spec(rng: random.Random, levels: int) -> tuple[SetSpec, str]:
    """A seeded spec tree of at most `levels` levels, and its text for messages.

    Leaves are residue classes, explicit sets, rules (some failing at a
    chosen K) and specs built from a bare test; about 40% of nodes have a
    window, some of them empty.
    """
    window = None
    if rng.random() < 0.4:
        a = rng.randrange(0, 70)
        window = (a, a + rng.randrange(-3, 50))
    kind = rng.choice(["residue", "explicit", "rule", "test"]
                      + ["complement"] * 2 * (levels > 1))
    if kind == "residue":
        m = rng.randrange(1, 7)
        r = rng.randrange(m)
        spec, text = SetSpec.residues(m, r, window), f"residue:{m}:{r}"
    elif kind == "explicit":
        members = sorted({rng.randrange(0, 90) for _ in range(rng.randrange(0, 30))})
        spec, text = SetSpec.explicit(members, window), f"explicit:{members}"
    elif kind == "rule":
        k = rng.randrange(0, 90)
        source = rng.choice(["n % 3", "(n / 2) % 2", "ilog2(n + 1) % 2", "n * n % 5 == 1",
                             f"n / (n - {k})", f"ilog2(n - {k})", f"1 / (n < {k})",
                             f"ipow(3, n - {k}) % 4"])
        spec, text = SetSpec.from_rule(source, window), f"rule:{source}"
    elif kind == "test":
        m = rng.randrange(2, 6)
        spec, text = SetSpec(window, lambda n: n % m == 1), f"test:n % {m} == 1"
    else:
        inner, inner_text = _random_spec(rng, levels - 1)
        spec, text = SetSpec.complement_of(inner, window), f"complement:{inner_text}"
    return spec, text + (f"@{window[0]}..{window[1]}" if window else "")


def _outcome(ask):
    """ask()'s value, or the type and message of the workbench error it raised."""
    try:
        return ask()
    except WorkbenchError as exc:
        return type(exc), str(exc)


def test_materialize_and_ip_star_match_a_sequential_scan():
    """Every kind's pass gives the members, or the error, of asking contains(n)
    for n = lo, ..., hi in turn; the IP* probe's complement comes from the same pass."""
    rng = random.Random(2718)
    seen = set()
    for _ in range(500):
        spec, text = _random_spec(rng, 3)
        for _ in range(3):
            lo = rng.randrange(0, 80)
            hi = lo + rng.randrange(0, 60)
            want = _outcome(lambda: frozenset(n for n in range(lo, hi + 1) if spec.contains(n)))
            got = _outcome(lambda: spec.materialize(lo, hi).members)
            assert got == want, (text, lo, hi)
            got = _outcome(lambda: is_ip_star_window(spec, "additive", 1, (lo, hi)))
            if isinstance(want, frozenset):
                rest = sorted(frozenset(range(lo, hi + 1)) - want)
                want = IpStarVerdict("fails", (rest[0],)) if rest else IpStarVerdict("holds")
                seen.add("members")
            else:
                seen.add(want[0])
            assert got == want, (text, lo, hi)
    assert seen == {"members", OracleRangeError, RuleEvaluationError}


# Where passes that start at 0 or 1 cross from one chunk to the next.
_CHUNK_EDGES = (1023, 1024, 1025, 2047, 2048)


def _near_chunk_edge(rng: random.Random) -> int:
    return rng.choice(_CHUNK_EDGES) + rng.randrange(-1, 2)


def _random_chunked_spec(rng: random.Random, levels: int) -> tuple[tuple, SetSpec]:
    """A seeded spec tree for `set_spec_oracle` of at most `levels` levels, and
    its SetSpec; windows and rule failures fall on or next to a chunk edge."""
    n, k = ("n",), _near_chunk_edge(rng)
    kind = rng.choice(["residue", "explicit", "rule"] + ["complement"] * 2 * (levels > 1))
    if kind == "residue":
        m = rng.randrange(1, 7)
        r = rng.randrange(m)
        tree, make = ("residue", m, r), lambda w: SetSpec.residues(m, r, w)
    elif kind == "explicit":
        members = frozenset(rng.sample(range(3001), rng.randrange(0, 600)))
        members |= {e for e in _CHUNK_EDGES if rng.random() < 0.5}
        tree, make = ("explicit", members), lambda w: SetSpec.explicit(members, w)
    elif kind == "rule":
        source, rule_tree = rng.choice([
            ("n % 3", ("%", n, ("const", 3))),
            ("(n / 2) % 2", ("%", ("/", n, ("const", 2)), ("const", 2))),
            ("ilog2(n + 1) % 2", ("%", ("ilog2", ("+", n, ("const", 1))), ("const", 2))),
            (f"n / (n - {k})", ("/", n, ("-", n, ("const", k)))),
            (f"1 / (n < {k})", ("/", ("const", 1), ("<", n, ("const", k)))),
            (f"ilog2({k} - n)", ("ilog2", ("-", ("const", k), n))),
        ])
        tree, make = ("rule", rule_tree), lambda w: SetSpec.from_rule(source, w)
    else:
        inner_tree, inner = _random_chunked_spec(rng, levels - 1)
        tree, make = ("complement", inner_tree), lambda w: SetSpec.complement_of(inner, w)
    if rng.random() < 0.4:
        lo = rng.choice([0, 1, 2, _near_chunk_edge(rng)])
        hi = rng.choice([_near_chunk_edge(rng), 3000])
        return ("window", lo, hi, tree), make((lo, hi))
    return tree, make(None)


def _chunked_outcome(ask):
    """ask()'s value, or the kind of workbench error it raised and its n."""
    try:
        return ask()
    except OracleRangeError as exc:
        return "range", exc.value
    except RuleEvaluationError as exc:
        return "rule", exc.n


def test_materialize_and_ip_star_match_the_oracle_across_chunks():
    """Query windows over several chunks give the oracle's members, or the error
    of its first failing n, also where a window or a rule fails at a chunk edge."""
    rng = random.Random(1024)
    seen = set()
    for _ in range(150):
        tree, spec = _random_chunked_spec(rng, 3)
        for _ in range(2):
            lo = rng.choice([0, 1, 2, rng.randrange(0, 200)])
            hi = rng.randrange(2040, 3001)
            want = frozenset()
            for v in range(lo, hi + 1):
                got = set_spec_oracle(tree, v)
                if isinstance(got, tuple):
                    want = got
                    break
                if got:
                    want |= {v}
            assert _chunked_outcome(lambda: spec.materialize(lo, hi).members) == want, (tree, lo, hi)
            got = _chunked_outcome(lambda: is_ip_star_window(spec, "additive", 1, (lo, hi)))
            if isinstance(want, frozenset):
                rest = sorted(frozenset(range(lo, hi + 1)) - want)
                want = IpStarVerdict("fails", (rest[0],)) if rest else IpStarVerdict("holds")
                seen.add("members")
            else:
                # the query's passes chunk [lo, hi] from lo
                edge = want[1] > lo and (want[1] - lo) % 1024 in (0, 1023)
                seen.add(want[0] + " at a chunk edge" * edge)
            assert got == want, (tree, lo, hi)
    assert seen == {"members", "range", "rule", "range at a chunk edge", "rule at a chunk edge"}


@pytest.mark.parametrize("text, kind, message", [
    ("complement:residue:2:0@1..1500", OracleRangeError, "membership undecidable for 1501"),
    ("complement:rule:1 / (n < 2049)", RuleEvaluationError,
     "rule evaluation failed at n=2049: division by zero"),
])
def test_errors_across_chunk_edges_pinned(text, kind, message):
    spec = parse_set_spec(text)
    for ask in (lambda: spec.materialize(2, 3000),
                lambda: is_ip_star_window(spec, "additive", 1, (2, 3000))):
        with pytest.raises(kind) as err:
            ask()
        assert type(err.value) is kind and str(err.value) == message


def test_parse_set_spec():
    assert parse_set_spec("all").contains(7)
    assert parse_set_spec("residue:2:0").contains(4)
    assert parse_set_spec("explicit:1,2,3").contains(2)
    assert not parse_set_spec("explicit:1,2,3").contains(9)
    assert parse_set_spec("rule:n % 2 == 1").contains(9)
    assert parse_set_spec("complement:residue:2:0").contains(3)
    spec = parse_set_spec("residue:2:1@1..50")
    with pytest.raises(OracleRangeError):
        spec.contains(60)
    with pytest.raises(DomainError):
        parse_set_spec("wat:1")
    with pytest.raises(DomainError):
        parse_set_spec("residue:2")
    with pytest.raises(DomainError) as err:
        parse_set_spec("residue:x:1")
    assert str(err.value) == "residue spec needs residue:M:R, got 'residue:x:1'"
    # a rule literal with more digits than int() converts, where it has a limit
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        with pytest.raises(RuleSyntaxError) as err:
            parse_set_spec("rule:n + " + "1" * (digits + 1))
        assert err.value.position == 4


def test_rule_spec_compiles_only_what_is_asked(monkeypatch):
    compiled = []
    function = rules._function
    monkeypatch.setattr(rules, "_function",
                        lambda param, body: compiled.append(param) or function(param, body))
    scanned, asked = SetSpec.from_rule("n % 3"), SetSpec.from_rule("n % 3")
    complement = SetSpec.complement_of(SetSpec.from_rule("n % 3"))
    assert compiled == []  # building a spec compiles nothing
    scanned.materialize(2, 5000)
    is_ip_star_window(scanned, "additive", 2, (1, 100))
    assert compiled == ["ns"]  # a materialised spec compiles its batch pass alone, once
    complement.materialize(2, 100)
    assert compiled == ["ns", "ns"]
    assert asked.contains(4) and not asked.contains(5)
    assert compiled == ["ns", "ns", "n"]  # a queried one compiles its test alone


@pytest.mark.parametrize("text", [
    "complement:residue:5:0", "rule:(n / 2) % 2", "residue:2:1", "complement:rule:n % 3",
    pytest.param("complement:explicit:" + ",".join(map(str, range(2, 40001, 2))),
                 id="complement:explicit:evens"),
    "complement:complement:rule:n % 3",
])
def test_materialize_holds_no_window_sized_intermediate(text):
    """The traced peak of materialising a 40,000-wide window stays within 1.25x
    of the memory the result keeps: no pass builds the window or its colours."""
    spec = parse_set_spec(text)
    tracemalloc.start()
    try:
        a = spec.materialize(2, 40000)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(a.members) >= 13000
    assert peak <= 1.25 * kept, (peak, kept)


def test_complement_asks_its_inner_window():
    spec = parse_set_spec("complement:residue:2:0@1..10@1..100")
    assert spec.contains(5) and not spec.contains(4)
    with pytest.raises(OracleRangeError):
        spec.contains(50)


@pytest.mark.parametrize("spec", [
    SetSpec.explicit({1}), SetSpec.residues(1, 0), SetSpec.from_rule("1"),
    SetSpec.complement_of(SetSpec.explicit(set())),
], ids=["explicit", "residue", "rule", "complement"])
def test_negative_query_is_domain_error(spec):
    with pytest.raises(DomainError):
        spec.contains(-1)


def test_rule_spec_errors():
    with pytest.raises(RuleSyntaxError):
        SetSpec.from_rule("n +")  # refused when built, not when first asked
    spec = SetSpec.from_rule("n / (n - 5)")
    assert not spec.contains(6)  # 6 / 1 is even
    with pytest.raises(RuleEvaluationError, match="^rule evaluation failed at n=5: division"):
        spec.contains(5)


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001,
                    reason="needs an int-to-str digit limit below 5001 digits")
def test_rule_error_past_the_digit_limit_names_n_by_bit_length():
    spec = SetSpec.from_rule("1 / (n < 10)")
    with pytest.raises(RuleEvaluationError) as err:
        spec.contains(10 ** 5000)
    assert str(err.value) == "rule evaluation failed at n=<16610-bit integer>: division by zero"
    assert err.value.n == 10 ** 5000


def test_specs_from_different_inputs_differ():
    assert SetSpec.residues(2, 0) != SetSpec.residues(2, 1)


def test_windowset_validation_and_records():
    with pytest.raises(DomainError):
        window_set(5, 2, set())
    with pytest.raises(DomainError):
        window_set(2, 5, {9})
    rec = windowset_record(window_set(1, 9, {3, 1}))
    assert rec == {"lo": 1, "hi": 9, "members": ["1", "3"]}
