"""Generators against independent subset-enumeration and recursion oracles."""

import random
import sys

import pytest

from exporamsey import (
    CapacityError,
    Caps,
    DomainError,
    evaluate,
    fe1,
    fe2,
    fp,
    fs,
    normalize,
)
from exporamsey.structures import (
    level_record,
    max_element_value,
    pow_image_base,
    pow_image_exp,
)
from exporamsey.tower import sorted_forms

from oracles import fe1_oracle, fe2_oracle, fp_oracle, fs_oracle


def canonical_set(level):
    return {(e.root, e.exponent) for e in level.elements}


def test_fs_examples():
    assert fs({1, 2, 4}) == {1, 2, 3, 4, 5, 6, 7}
    assert fs({5}) == {5}
    assert fs({2, 3}) == {2, 3, 5}


def test_fp_examples():
    assert fp({2, 3, 5}) == {2, 3, 5, 6, 10, 15, 30}
    assert fp({7}) == {7}
    assert fp({2, 4}) == {2, 4, 8}


def test_fs_fp_against_oracle():
    rng = random.Random(23)
    for _ in range(200):
        xs = {rng.randrange(1, 60) for _ in range(rng.randrange(1, 8))}
        assert fs(xs) == fs_oracle(xs)
        assert fp(xs) == fp_oracle(xs)


def test_fs_guard_and_domain():
    with pytest.raises(CapacityError):
        fs(range(1, 30))
    with pytest.raises(DomainError):
        fs({0, 1})
    with pytest.raises(CapacityError):
        fp({1 << 2000, 1 << 2100})


def test_fe1_examples():
    assert canonical_set(fe1((2, 3, 4), 0)) == {(2, 1)}
    lvl1 = fe1((2, 3, 4), 1)
    assert {evaluate(e) for e in lvl1.elements} == {2, 3, 8}
    lvl2 = fe1((2, 3, 4), 2)
    assert {evaluate(e) for e in lvl2.elements} == {2, 3, 4, 8, 16, 81, 4096}
    assert lvl2.dropped_count == 0


def test_fe2_examples():
    assert {evaluate(e) for e in fe2((2, 3, 4), 1).elements} == {2, 3, 9}
    assert {evaluate(e) for e in fe2((2, 3, 4), 2).elements} == {2, 3, 4, 9, 16, 64, 262144}
    assert canonical_set(fe2((2,), 0)) == {(2, 1)}


def test_fe_validation():
    with pytest.raises(DomainError):
        fe1((3, 2), 1)  # not increasing
    with pytest.raises(DomainError):
        fe1((2, 3), 2)  # not enough seeds
    with pytest.raises(DomainError):
        fe1((1, 2), 1)  # seeds below 2
    with pytest.raises(DomainError):
        fe1((2, 3), -1)


def test_fe_against_definition_oracle_small():
    rng = random.Random(29)
    pool = list(range(2, 10))
    for _ in range(60):
        size = rng.randrange(1, 6)
        seeds = tuple(sorted(rng.sample(pool, size)))
        for level in range(0, min(size - 1, 4) + 1):
            want1, drop1 = fe1_oracle(seeds, level)
            got1 = fe1(seeds, level)
            assert canonical_set(got1) == want1
            assert got1.dropped_count == drop1
            want2, drop2 = fe2_oracle(seeds, level)
            got2 = fe2(seeds, level)
            assert canonical_set(got2) == want2
            assert got2.dropped_count == drop2


def test_fe_levels_are_built_ascending():
    # readers take a level's order and its largest element as built
    rng = random.Random(83)
    for _ in range(15):
        seeds = sorted(rng.sample(range(2, 60), 4))
        for level in range(4):
            for gen in (fe1, fe2):
                got = gen(seeds, level).elements
                assert type(got) is tuple
                assert got == tuple(sorted_forms(set(got)))


def test_fe_cardinality_bound_and_monotonicity():
    seeds = (2, 3, 5, 6, 7)
    for gen in (fe1, fe2):
        previous = set()
        for level in range(len(seeds)):
            got = gen(seeds, level)
            if got.dropped_count == 0:
                assert len(got.elements) <= 2 ** (level + 1) - 1
            assert previous <= set(got.elements)
            previous = set(got.elements)


def test_fe2_drops_when_capped():
    # with a tiny value cap, large elements cannot serve as exponents
    caps = Caps(value_bit_cap=16)
    got = fe2((2, 3, 4, 5), 3, caps)
    want, dropped = fe2_oracle((2, 3, 4, 5), 3, value_bit_cap=16)
    assert canonical_set(got) == want
    assert got.dropped_count == dropped > 0


def test_pow_images():
    assert pow_image_base(2, {1, 2, 3}) == {2, 4, 8}
    assert pow_image_base(3, {2}) == {9}
    assert pow_image_base(2, set()) == set()
    assert pow_image_exp({2, 3}, 2) == {4, 9}
    assert pow_image_exp({5}, 1) == {5}
    assert pow_image_exp({2, 4}, 3) == {8, 64}
    with pytest.raises(DomainError):
        pow_image_base(1, {2})
    with pytest.raises(DomainError):
        pow_image_exp({2}, 0)
    with pytest.raises(CapacityError):
        pow_image_base(2, {10 ** 6})
    # the value decides, not a bound on the base's bit length
    assert pow_image_exp({1}, 10 ** 4) == {1}
    assert pow_image_exp({1, 2}, 4095) == {1, 2 ** 4095}  # 4096 bits
    with pytest.raises(CapacityError, match=r"^2\*\*4096 exceeds value_bit_cap 4096$"):
        pow_image_exp({2}, 4096)


@pytest.mark.parametrize("call, message", [
    (lambda: pow_image_base(2, {-1}), "exponents must be non-negative integers"),
    (lambda: pow_image_exp({0}, 2), "bases must be positive integers"),
], ids=["negative_exponent", "zero_base"])
def test_pow_image_members_validated(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_product_identities_random():
    # fp(n**X) == n**fs(X) and fp(X**n) == fp(X)**n, elementwise as sets
    rng = random.Random(31)
    for _ in range(300):
        size = rng.randrange(1, 7)
        xs = {rng.randrange(1, 40) for _ in range(size)}
        n = rng.randrange(2, 6)
        assert fp(pow_image_base(n, xs)) == pow_image_base(n, fs(xs))
    for _ in range(300):
        size = rng.randrange(1, 6)
        xs = {rng.randrange(1, 10) for _ in range(size)}
        n = rng.randrange(1, 5)
        assert fp(pow_image_exp(xs, n)) == pow_image_exp(fp(xs), n)


def test_max_element_value():
    assert max_element_value(fe1((2, 3, 4), 2)) == 4096
    with pytest.raises(CapacityError):
        max_element_value(fe1((2, 3, 4), 2), Caps(value_bit_cap=8))


def test_level_record_shapes():
    rec = level_record("FE1", (2, 3, 4), fe1((2, 3, 4), 1))
    assert rec["kind"] == "FE1"
    assert rec["level"] == 1
    assert [e["value"] for e in rec["elements"]] == ["2", "3", "8"]
    rec2 = level_record("FS", (2, 3), fs({2, 3}))
    assert rec2["elements"] == ["2", "3", "5"]
    assert rec2["level"] is None


@pytest.mark.skipif(not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5001,
                    reason="needs an int-to-str digit limit below 5001 digits")
def test_capped_pow_message_past_the_digit_limit():
    with pytest.raises(CapacityError,
                       match=r"^<16610-bit integer>\*\*2 exceeds value_bit_cap 4096$"):
        pow_image_exp([10 ** 5000], 2)
