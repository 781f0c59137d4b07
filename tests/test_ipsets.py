"""Window transforms, seed searches, IP* verdicts, progression detectors."""

import random

import pytest

from exporamsey import (
    Caps,
    DomainError,
    OracleRangeError,
    RuleEvaluationError,
    RuleSyntaxError,
    SetSpec,
    find_fp_seed,
    find_fs_seed,
    find_geometric_progressions,
    find_power_progressions,
    is_ip_star_window,
    parse_set_spec,
    transform,
    window_set,
)
from exporamsey.ipsets import windowset_record

from oracles import (
    fp_oracle,
    fs_oracle,
    geometric_progressions_oracle,
    power_progressions_oracle,
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


def test_seed_search_budget_inconclusive():
    a = window_set(1, 40, range(1, 41))
    tight = Caps(search_budget=3)
    out = find_fs_seed(a, 4, tight)
    assert out.status == "inconclusive"
    with pytest.raises(DomainError):
        find_fs_seed(a, 0)


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
    with pytest.raises(RuleEvaluationError):
        spec.contains(5)


def test_specs_from_different_inputs_differ():
    assert SetSpec.residues(2, 0) != SetSpec.residues(2, 1)


def test_windowset_validation_and_records():
    with pytest.raises(DomainError):
        window_set(5, 2, set())
    with pytest.raises(DomainError):
        window_set(2, 5, {9})
    rec = windowset_record(window_set(1, 9, {3, 1}))
    assert rec == {"lo": 1, "hi": 9, "members": ["1", "3"]}
