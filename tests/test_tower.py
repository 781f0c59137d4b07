"""Canonical power-form arithmetic against big-integer ground truth."""

import math
import random
import time
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

from oracles import perfect_power_oracle, perfect_power_table, power_residues


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


@pytest.mark.parametrize("call, error, message", [
    (lambda: ikth_root(-1, 2), DomainError, "ikth_root requires n >= 0 and k >= 1"),
    (lambda: PowerForm(2.0, 1), DomainError, "PowerForm fields must be integers"),
    (lambda: PowerForm(2, 1) < 3, TypeError, "'<' not supported"),
], ids=["ikth_root_negative", "powerform_float_root", "powerform_less_than_int"])
def test_tower_input_errors(call, error, message):
    with pytest.raises(error, match=message):
        call()


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
    # around k = n.bit_length(), from which on 2**k > n and the root is 1
    for n in range(2, 300):
        for k in range(max(n.bit_length() - 2, 1), n.bit_length() + 2):
            r = ikth_root(n, k)
            assert r ** k <= n < (r + 1) ** k
    assert [ikth_root(2 ** 5000, k) for k in (5000, 5001)] == [2, 1]
    assert ikth_root(100, 10 ** 9) == 1  # computes no 10**9-bit power


def test_perfect_power_against_oracle():
    # full-oracle comparison where the O(sqrt n) oracle is feasible
    for n in range(2, 3000):
        assert perfect_power(n) == perfect_power_oracle(n)


def test_perfect_power_against_power_table():
    table = perfect_power_table(2 * 10 ** 5)
    for n in range(2 * 10 ** 5):
        assert perfect_power(n) == table.get(n), n


def test_perfect_power_word_size():
    # every m**k < 2**64 with k >= 5, covering each value the lookup from k = 7
    # decides; by Mihailescu's theorem m**k +- 1 is never a perfect power
    for n, mk in perfect_power_table(1 << 64, min_exp=5).items():
        assert perfect_power(n) == mk, n
        assert perfect_power(n - 1) is None and perfect_power(n + 1) is None, n
    word = 1 << 64
    assert [perfect_power(n) for n in (word - 1, word, word + 1)] == [None, (2, 64), None]
    assert [perfect_power(n) for n in (3 ** 40, 3 ** 41, 565 ** 7)] == [(3, 40), (3, 41), (565, 7)]
    # from 2**64 up, with a root that drops below 2**64 partway through the loop
    for m, k in ((5, 77), (6, 49), (2, 7 * 7 * 2)):
        assert perfect_power(m ** k) == (m, k)


@pytest.mark.parametrize("root", [3, 2])
def test_perfect_power_past_the_prime_table(root):
    # 4099 is the least prime past the table, so only the odd exponents beyond it find it
    assert tower._PRIMES[-1] < 4099
    assert perfect_power(root ** 4099) == (root, 4099)


def test_word_residue_tables():
    tables = {(2, 64): tower._SQUARES_64, (2, 63): tower._SQUARES_63,
              (2, 65): tower._SQUARES_65, (3, 819): tower._CUBES_819,
              (5, 341): tower._FIFTHS_341}
    for (k, m), table in tables.items():
        assert len(table) == m and set(table) <= {0, 1}
        assert {x for x in range(m) if table[x]} == power_residues(k, m), (k, m)
    assert {km: sum(table) for km, table in tables.items()} == {
        (2, 64): 12, (2, 63): 16, (2, 65): 21, (3, 819): 45, (5, 341): 21}


def test_perfect_power_word_boundaries():
    # By Mihailescu's theorem m**k +- 1 is never a perfect power for m**k > 9.
    word = 1 << 64
    # the largest square, cube and fifth power below 2**64, and two powers from
    # 2**64 up whose root drops below it after one square root
    cases = [((1 << 32) - 1, 2), (2642245, 3), (7131, 5), ((1 << 32) + 1, 2), ((1 << 21) + 1, 6)]
    assert [m ** k < word for m, k in cases] == [True, True, True, False, False]
    assert min((1 << 32) ** 2, 2642246 ** 3, 7132 ** 5) >= word
    assert all(perfect_power_oracle(m) is None for m, _ in cases)
    # sixth, tenth, fifteenth and thirtieth powers: every order of k = 2, 3, 5, on
    # either side of 2**64, and 65538**30 reaches the word-size routine after k = 5
    for r in (2, 3, 6, 10, 12, 1001, 65538):
        assert perfect_power_oracle(r) is None
        cases += [(r, k) for k in (6, 10, 15, 30)]
    for m, k in cases:
        n = m ** k
        assert perfect_power(n) == (m, k), (m, k)
        assert perfect_power(n - 1) is None and perfect_power(n + 1) is None, (m, k)
    # every m**3 for the top 2**16 values of m up to the largest cube root below 2**64
    top = 2642245
    roots = perfect_power_table(top + 1)  # the m that are perfect powers themselves
    for m in range(top - (1 << 16) + 1, top + 1):
        r, e = roots.get(m, (m, 1))
        n = m ** 3
        assert perfect_power(n) == (r, 3 * e), m
        assert perfect_power(n - 1) is None and perfect_power(n + 1) is None, m


def test_word_size_roots_take_no_general_root(monkeypatch):
    # below 2**64 every root comes from the word-size routine, never from
    # _exact_root or ikth_root; the values are drawn as the census workload's
    # tower batches draw theirs
    def general_root(*args):
        raise AssertionError(f"general root taken for {args}")

    monkeypatch.setattr(tower, "_exact_root", general_root)
    monkeypatch.setattr(tower, "ikth_root", general_root)
    values = []
    for batch in range(64):
        rng = random.Random(f"tower-batch-{batch}")
        values += [rng.randrange(2, 10 ** 18) for _ in range(100)]
        values += [rng.randrange(2, 10 ** 4) ** rng.randrange(2, 5) for _ in range(30)]
        pows = 0
        while pows < 50:
            a, b = rng.randrange(2, 10 ** 6), rng.randrange(2, 60)
            if a ** b <= 10 ** 18:
                values += [a, b]
                pows += 1
        values += [rng.randrange(2, 10 ** 18) for _ in range(200)]
    powers = 0
    for n in values:
        pf = normalize(n)
        assert pf.root ** pf.exponent == n
        powers += pf.exponent > 1
    assert powers > 64 * 30


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


def test_compare_precision_ceiling_is_a_capacity_error(monkeypatch):
    # 31867*log2(3) = 50508.00001..., which 32 bits of log2 precision do not separate
    a = PowerForm(2, 50508)
    b = PowerForm(3, 31867)
    assert compare(a, b) == LT
    monkeypatch.setattr(tower, "_MAX_CMP_PRECISION", 32)
    with pytest.raises(CapacityError, match="comparison precision exhausted for 2"):
        compare(a, b)


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


def test_powerform_record_bounded_by_caps(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a form past the caps reached the perfect-power test")

    monkeypatch.setattr(tower, "perfect_power", unreachable)
    start = time.perf_counter()
    with pytest.raises(CapacityError,
                       match="^PowerForm root of 12001 bits exceeds value_bit_cap 4096$"):
        powerform_from_record({"root": str((1 << 12000) + 1), "exp": "1"})
    with pytest.raises(CapacityError,
                       match="^PowerForm exponent of 65537 bits exceeds exp_bit_cap 65536$"):
        powerform_from_record({"root": "2", "exp": 1 << 65536})
    assert time.perf_counter() - start < 0.5
    with pytest.raises(CapacityError, match="exp_bit_cap 4$"):
        powerform_from_record({"root": "2", "exp": "16"}, Caps(exp_bit_cap=4))


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


def test_sorted_forms_settles_wide_near_ties():
    # 3^m < 2^e < 3^(m + 1) for m = floor(e / log2 3): with e hundreds to thousands of bits
    # wide their float keys tie, so only the exact compare orders each run
    rng = random.Random(43)
    forms = []
    for bits in (8, 40, 200, 700, 1500, 2048):
        e = rng.getrandbits(bits) | (1 << (bits - 1))
        with localcontext() as ctx:
            ctx.prec = len(str(e)) + 40
            m = int(Decimal(e) * Decimal(2).ln() / Decimal(3).ln())
        forms += [PowerForm(2, e), PowerForm(3, m), PowerForm(3, m + 1), PowerForm(2, e + 1)]
        if bits >= 200:  # the keys of 2^e and 3^m tie within tau
            assert abs(_float_key(forms[-3]) - _float_key(forms[-4])) <= 2.0 ** -44
    want = _exact_sorted(forms)
    for _ in range(2):
        rng.shuffle(forms)
        assert sorted_forms(forms) == want


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
