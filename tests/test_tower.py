"""Canonical power-form arithmetic against big-integer ground truth."""

import math
import random
from decimal import Decimal, localcontext
from functools import cmp_to_key

import pytest

from exporamsey import tower

from exporamsey import (
    CapacityError,
    Caps,
    DomainError,
    EQ,
    GT,
    LT,
    PowerForm,
    compare,
    evaluate,
    normalize,
    power,
    exp_closure,
    try_evaluate,
)
from exporamsey.tower import (
    ikth_root,
    is_perfect_power,
    perfect_power,
    powerform_from_record,
    powerform_record,
    sorted_forms,
    vertex_label,
)

from oracles import perfect_power_oracle, perfect_power_table


def test_normalize_examples():
    assert normalize(2) == PowerForm(2, 1)
    assert normalize(256) == PowerForm(2, 8)
    # 36 = 6**2, caught by the brute-force oracle
    assert perfect_power_oracle(36) == (6, 2)
    assert normalize(36) == PowerForm(6, 2)
    assert perfect_power_oracle(72) is None
    assert normalize(72) == PowerForm(72, 1)


def test_normalize_domain_and_capacity():
    with pytest.raises(DomainError):
        normalize(1)
    with pytest.raises(DomainError):
        normalize(0)
    with pytest.raises(CapacityError):
        normalize(1 << 5000)
    assert normalize(1 << 5000, Caps(value_bit_cap=6000)) == PowerForm(2, 5000)


def test_powerform_rejects_non_canonical():
    with pytest.raises(DomainError):
        PowerForm(4, 3)
    with pytest.raises(DomainError):
        PowerForm(2, 0)
    with pytest.raises(DomainError):
        PowerForm(1, 5)


def test_perfect_power_runs_only_where_a_root_enters(monkeypatch):
    calls = []
    detect = tower.perfect_power

    def counting_perfect_power(n):
        calls.append(n)
        return detect(n)

    monkeypatch.setattr(tower, "perfect_power", counting_perfect_power)
    normalize(10 ** 18 + 9)
    assert calls == [10 ** 18 + 9]
    calls.clear()
    exp_closure([2, 3, 5], 3)
    assert sorted(calls) == [2, 3, 5]  # the seeds; derived roots are not re-checked
    calls.clear()
    p = power(normalize(6), normalize(5))
    assert calls == [6, 5]
    assert p == PowerForm(6, 5)


def test_ikth_root_exact():
    rng = random.Random(7)
    for _ in range(2000):
        n = rng.randrange(0, 10 ** 12)
        k = rng.randrange(1, 40)
        r = ikth_root(n, k)
        assert r ** k <= n
        assert (r + 1) ** k > n


def test_perfect_power_against_oracle():
    # full-oracle comparison where the O(sqrt n) oracle is feasible
    for n in range(2, 3000):
        assert perfect_power(n) == perfect_power_oracle(n)


def test_perfect_power_against_power_table():
    table = perfect_power_table(2 * 10 ** 5)
    for n in range(2 * 10 ** 5):
        assert perfect_power(n) == table.get(n), n


def _power_free(rng, lo, hi):
    """An m in [lo, hi) with m = 2 mod 4: a single factor 2, so m is no perfect power."""
    return rng.randrange(lo // 4, hi // 4) * 4 + 2


def test_perfect_power_float_guard():
    # m**k and its neighbours around the float-root guard (roots below 2**44)
    # and past the roots where a float guess goes wrong (from about 2**47).
    # By Mihailescu's theorem m**k +- 1 is never a perfect power for m >= 3.
    rng = random.Random(2011)
    ks = (2, 3, 4, 5, 6, 7, 9, 11, 13, 15)
    for bits in range(30, 53):
        ms = [(1 << bits) - 2, (1 << bits) + 2, _power_free(rng, 1 << bits, 2 << bits)]
        for m in ms:
            for k in ks:
                n = m ** k
                assert perfect_power(n) == (m, k), (m, k)
                assert perfect_power(n - 1) is None and perfect_power(n + 1) is None, (m, k)
    assert perfect_power(5671 ** 8) == (5671, 8)  # 5671 = 53 * 107
    # past 1023 bits the float guess is off limits: n does not convert
    for m, k in (((1 << 520) + 2, 2), ((1 << 350) + 2, 3), (3, 700), ((1 << 100) + 2, 11)):
        n = m ** k
        assert n.bit_length() > 1024
        assert perfect_power(n) == (m, k)
        assert perfect_power(n - 1) is None and perfect_power(n + 1) is None
    huge = (1 << 1100) + 2  # 2 * odd: not a perfect power
    assert PowerForm(huge, 1).root == huge
    assert normalize(huge ** 3, Caps(value_bit_cap=1 << 14)) == PowerForm(huge, 3)
    with pytest.raises(DomainError):
        PowerForm(huge ** 2, 1)


def test_canonicalization_of_large_powers():
    # for huge m**k only the root needs the brute-force check: the root being
    # power-free plus root**exp == n pins the unique canonical form
    rng = random.Random(11)
    for _ in range(300):
        m = rng.randrange(2, 10 ** 4)
        k = rng.randrange(1, 21)
        n = m ** k
        pf = normalize(n, Caps(value_bit_cap=1 << 20))
        assert pf.root ** pf.exponent == n
        assert perfect_power_oracle(pf.root) is None
        assert pf.exponent % k == 0  # m**k structure must be refined, not lost


def test_power_examples():
    assert power(PowerForm(2, 3), PowerForm(2, 2)) == PowerForm(2, 12)
    assert evaluate(PowerForm(2, 12)) == 4096
    assert power(PowerForm(2, 1), PowerForm(2, 1)) == PowerForm(2, 2)
    assert power(PowerForm(3, 1), PowerForm(2, 2)) == PowerForm(3, 4)
    assert evaluate(PowerForm(3, 4)) == 81


def test_power_capacity_errors():
    sym = PowerForm(2, 5000)  # value above the default 4096-bit cap
    with pytest.raises(CapacityError, match="symbolic exponent"):
        power(PowerForm(2, 1), sym)
    tight = Caps(exp_bit_cap=8)
    with pytest.raises(CapacityError):
        power(PowerForm(2, 100), PowerForm(7, 1), tight)


def test_evaluate_examples():
    assert evaluate(PowerForm(2, 8)) == 256
    assert evaluate(PowerForm(3, 4)) == 81
    with pytest.raises(CapacityError):
        evaluate(PowerForm(2, 2 ** 20))
    assert try_evaluate(PowerForm(2, 2 ** 20)) is None


def test_compare_examples():
    assert compare(PowerForm(2, 10), PowerForm(3, 6)) == GT  # 1024 vs 729
    assert compare(PowerForm(2, 8), PowerForm(2, 8)) == EQ
    assert compare(PowerForm(2, 10 ** 6), PowerForm(3, 600000)) == GT
    assert compare(PowerForm(3, 600000), PowerForm(2, 10 ** 6)) == LT


def test_compare_explicit_agreement():
    rng = random.Random(3)
    for _ in range(3000):
        a = normalize(rng.randrange(2, 10 ** 12))
        b = normalize(rng.randrange(2, 10 ** 12))
        va, vb = evaluate(a), evaluate(b)
        want = EQ if va == vb else (LT if va < vb else GT)
        assert compare(a, b) == want


def _random_symbolic(rng):
    roots = [2, 3, 5, 6, 7, 10, 11, 12, 13]
    return PowerForm(rng.choice(roots), rng.randrange(5000, 200000))


def test_compare_symbolic_properties():
    rng = random.Random(5)
    for _ in range(500):
        a, b, c = (_random_symbolic(rng) for _ in range(3))
        assert compare(a, b) == -compare(b, a)
        # transitivity via sorting consistency
        forms = sorted_forms([a, b, c])
        assert compare(forms[0], forms[1]) in (LT, EQ)
        assert compare(forms[1], forms[2]) in (LT, EQ)
        assert compare(forms[0], forms[2]) in (LT, EQ)


def test_compare_close_symbolic_pair():
    # 15601*log2(3) = 24726.99997..., within 3e-5 of an integer, so the
    # interval path has to refine before these separate
    a = PowerForm(2, 24727)
    b = PowerForm(3, 15601)
    assert 2 ** 24727 > 3 ** 15601  # materialized ground truth
    assert compare(a, b) == GT
    assert compare(b, a) == LT


def test_roundtrip_random():
    rng = random.Random(13)
    for _ in range(100000):
        n = rng.randrange(2, 10 ** 9)
        assert evaluate(normalize(n)) == n


def test_canonical_soundness_random():
    rng = random.Random(17)
    for _ in range(300):
        m = rng.randrange(2, 10 ** 4)
        k = rng.randrange(1, 21)
        pf = normalize(m ** k)
        assert perfect_power_oracle(pf.root) is None
        assert pf.root ** pf.exponent == m ** k


def test_pow_soundness_random():
    rng = random.Random(19)
    for _ in range(2000):
        a = rng.randrange(2, 50)
        b = rng.randrange(2, 12)
        if a ** b > 10 ** 18:
            continue
        got = power(normalize(a), normalize(b))
        assert evaluate(got) == a ** b


def test_distinct_canonical_forms_never_equal():
    seen = {}
    for n in range(2, 4000):
        pf = normalize(n)
        assert pf not in seen
        seen[pf] = n


def test_serialization_roundtrip():
    pf = normalize(256)
    rec = powerform_record(pf)
    assert rec == {"root": "2", "exp": "8", "value": "256"}
    assert powerform_from_record(rec) == pf
    with pytest.raises(DomainError):
        powerform_from_record({"root": "8", "exp": "2"})
    sym = PowerForm(2, 5000)
    rec2 = powerform_record(sym)
    assert rec2["value"] is None
    assert powerform_from_record(rec2) == sym
    assert vertex_label(pf) == "256"
    assert vertex_label(sym) == "2^5000"


def test_ordering_dunders():
    forms = [normalize(n) for n in (81, 2, 256, 7, 36)]
    assert [evaluate(f) for f in sorted(forms)] == [2, 7, 36, 81, 256]
    assert normalize(4) < PowerForm(2, 5000)


def _exact_sorted(forms):
    return sorted(forms, key=cmp_to_key(compare))


def _float_key(f):
    return math.log2(f.exponent) + math.log2(math.log2(f.root))


def test_sorted_forms_matches_exact_order_random():
    rng = random.Random(23)
    cap = Caps().exp_bit_cap
    big_roots = [normalize(rng.randrange(10 ** 30, 10 ** 31)).root for _ in range(4)]
    roots = [2, 3, 5, 6, 7, 10, 11, 12, 13] + big_roots
    for _ in range(40):
        forms = []
        for _ in range(rng.randrange(1, 60)):
            kind = rng.randrange(3)
            if kind == 0:
                exp = rng.randrange(1, 200)
            elif kind == 1:
                exp = rng.randrange(1, 1 << rng.randrange(1, 200))
            else:  # exponents near the exponent bit cap
                exp = rng.randrange(1 << (cap - 2), 1 << cap)
            forms.append(PowerForm(rng.choice(roots), exp))
        assert sorted_forms(forms) == _exact_sorted(forms)


def _log2_3_convergents(max_q):
    """Continued-fraction convergents p/q of log2(3) with q <= max_q."""
    with localcontext() as ctx:
        ctx.prec = 120
        x = Decimal(3).ln() / Decimal(2).ln()
        out = []
        p0, q0, p1, q1 = 1, 0, int(x), 1
        while q1 <= max_q:
            out.append((p1, q1))
            x = 1 / (x - int(x))
            a = int(x)
            p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
    return out


def test_sorted_forms_adversarial_near_ties():
    e = 1 << 60
    same_root = [PowerForm(2, e), PowerForm(2, e + 1), PowerForm(3, e), PowerForm(3, e + 1)]
    # the float keys of the same-root pairs collide
    assert _float_key(same_root[0]) == _float_key(same_root[1])
    forms = list(same_root)
    for p, q in _log2_3_convergents(10 ** 24):
        for k in (0, 1, 7, 40):
            forms.append(PowerForm(2, p << k))
            forms.append(PowerForm(3, q << k))
    assert (1054, 665) in _log2_3_convergents(10 ** 4)
    rng = random.Random(29)
    for _ in range(5):
        rng.shuffle(forms)
        assert sorted_forms(forms) == _exact_sorted(forms)
    # duplicates keep their multiplicity, next to each other
    dup = forms[:30] + forms[:30] + [PowerForm(2, 1054)] * 3
    rng.shuffle(dup)
    assert sorted_forms(dup) == _exact_sorted(dup)
    assert sorted_forms([]) == []


def test_sorted_forms_rarely_falls_back_to_compare(monkeypatch):
    verts = list(exp_closure({2, 3, 5}, 2).vertices)
    calls = []
    exact = tower.compare

    def counting_compare(a, b):
        calls.append((a, b))
        return exact(a, b)

    monkeypatch.setattr(tower, "compare", counting_compare)
    shuffled = verts[:]
    random.Random(31).shuffle(shuffled)
    assert sorted_forms(shuffled) == verts
    assert len(calls) <= 5  # only near-tied float keys reach the exact compare
