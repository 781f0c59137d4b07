"""Greedy recurrences, block searches, and certificate verification."""

import hashlib
import random
import sys
from dataclasses import replace

import pytest

from exporamsey import (
    Caps,
    DomainError,
    FeCertificate,
    GreedyFailure,
    SetSpec,
    evaluate,
    fe1,
    fe2,
    greedy_fe1,
    greedy_fe2,
    parse_set_spec,
    search_fegen1,
    search_fegen2,
    verify_fe_certificate,
    verify_fecor,
)
from exporamsey.greedy import (
    _parse_f_spec,
    _safe_pow,
    _verify_state,
    certificate_record,
    failure_record,
    outcome_record,
)
from exporamsey.structures import max_element_value
from oracles import block_search_oracle

ALL = SetSpec.residues(1, 0)
EVENS = SetSpec.residues(2, 0)
ODDS = SetSpec.residues(2, 1)


def cert_values(cert):
    return sorted(evaluate(pf) for pf, _ in cert.checked)


def test_greedy_fe1_golden():
    got = greedy_fe1(ALL, 2, (2, 100))
    assert isinstance(got, FeCertificate)
    assert got.seeds == (2, 3, 4)
    assert cert_values(got) == [2, 3, 4, 8, 16, 81, 4096]


def test_greedy_fe1_even_failure():
    got = greedy_fe1(EVENS, 2, (2, 10 ** 4))
    assert got == GreedyFailure(step=2, reason="empty intersection")


def test_greedy_fe1_empty_oracle():
    got = greedy_fe1(SetSpec.explicit(set()), 2, (2, 50))
    assert isinstance(got, GreedyFailure)
    assert (got.step, got.reason) == (0, "no x_0")


def test_greedy_fe1_depth_zero():
    got = greedy_fe1(ALL, 0, (2, 10))
    assert got.seeds == (2,)
    assert cert_values(got) == [2]


def test_greedy_fe1_remark_consistency():
    # on success, every base j in [2, N_i] keeps j**x_{i+1} inside A
    spec = SetSpec.from_rule("n > 1")
    got = greedy_fe1(spec, 2, (2, 200))
    assert isinstance(got, FeCertificate)
    xs = got.seeds
    for i in range(got.depth):
        n_i = max_element_value(fe1(xs, i))
        for j in range(2, n_i + 1):
            assert spec.contains(j ** xs[i + 1])
        assert spec.contains(xs[i + 1])


def test_greedy_fe1_least_choice_unique():
    a = greedy_fe1(ALL, 2, (2, 100))
    b = greedy_fe1(ALL, 2, (2, 100))
    assert a == b


def test_greedy_fe2_golden():
    got = greedy_fe2(ALL, 2, (2, 100))
    assert got.seeds == (2, 3, 4)
    assert cert_values(got) == [2, 3, 4, 9, 16, 64, 262144]


def test_greedy_fe2_odd():
    got = greedy_fe2(ODDS, 1, (2, 100))
    assert got.seeds == (3, 5)
    assert cert_values(got) == [3, 5, 125]


def test_greedy_fe2_failure():
    got = greedy_fe2(SetSpec.explicit(set()), 1, (2, 30))
    assert (got.step, got.reason) == (0, "no x_0")


def test_greedy_oracle_range_failure():
    # window-limited oracle cannot decide the certificate values
    narrow = SetSpec.residues(1, 0, window=(1, 50))
    got = greedy_fe1(narrow, 2, (2, 40))
    assert isinstance(got, GreedyFailure)
    assert got.reason == "oracle range"


NARROW = SetSpec.residues(1, 0, window=(1, 50))
ABOVE_FOUR = SetSpec.residues(1, 0, window=(5, 50))


@pytest.mark.parametrize("run, spec, depth, window, caps, expected", [
    (greedy_fe1, NARROW, 2, (2, 40), Caps(),
     {"step": 2, "reason": "oracle range", "detail": "81"}),
    (greedy_fe2, NARROW, 2, (2, 40), Caps(),
     {"step": 2, "reason": "oracle range", "detail": "64"}),
    (greedy_fe1, ABOVE_FOUR, 1, (2, 40), Caps(),
     {"step": 0, "reason": "oracle range", "detail": "2"}),
    (greedy_fe2, ABOVE_FOUR, 1, (2, 40), Caps(),
     {"step": 0, "reason": "oracle range", "detail": "2"}),
    (greedy_fe1, ALL, 4, (2, 100), Caps(),
     {"step": 4, "reason": "capacity",
      "detail": "level maximum 1152921504606846976 exceeds greedy_base_limit"}),
    (greedy_fe1, ALL, 3, (2, 100), Caps(value_bit_cap=16),
     {"step": 3, "reason": "oracle range", "detail": "2^20"}),
    (greedy_fe2, ALL, 3, (2, 100), Caps(value_bit_cap=16),
     {"step": 3, "reason": "oracle range", "detail": "level element not evaluable"}),
    (greedy_fe1, EVENS, 2, (2, 10 ** 4), Caps(),
     {"step": 2, "reason": "empty intersection"}),
    (greedy_fe2, EVENS, 2, (2, 100), Caps(), (2, 4, 6)),
    (greedy_fe1, ALL, 1, (2, 100), Caps(exp_bit_cap=1),
     {"step": 1, "reason": "capacity", "detail": "1 tower elements dropped"}),
    (greedy_fe2, ALL, 1, (2, 100), Caps(exp_bit_cap=1),
     {"step": 1, "reason": "capacity", "detail": "1 tower elements dropped"}),
    # x_0 is looked for from 2 up, whatever the window's lower end
    (greedy_fe1, ALL, 1, (0, 100), Caps(), (2, 3)),
    (greedy_fe2, ALL, 1, (-5, 100), Caps(), (2, 3)),
    # a chosen seed wider than value_bit_cap, met building the next level or certifying
    (greedy_fe1, ALL, 1, (20, 40), Caps(value_bit_cap=4),
     {"step": 1, "reason": "capacity", "detail": "input bit length 5 exceeds value_bit_cap 4"}),
    (greedy_fe1, ALL, 0, (20, 40), Caps(value_bit_cap=4),
     {"step": 0, "reason": "capacity", "detail": "input bit length 5 exceeds value_bit_cap 4"}),
    (greedy_fe2, ALL, 1, (20, 40), Caps(value_bit_cap=4),
     {"step": 1, "reason": "capacity", "detail": "input bit length 5 exceeds value_bit_cap 4"}),
    (greedy_fe2, ALL, 0, (20, 40), Caps(value_bit_cap=4),
     {"step": 0, "reason": "capacity", "detail": "input bit length 5 exceeds value_bit_cap 4"}),
])
def test_greedy_fe_outcomes_pinned(run, spec, depth, window, caps, expected):
    got = run(spec, depth, window, caps)
    if isinstance(expected, tuple):
        assert isinstance(got, FeCertificate)
        assert got.seeds == expected
    else:
        assert failure_record(got) == {"status": "failure", **expected}


def test_certificate_verifier_detects_tampering():
    good = greedy_fe1(ALL, 2, (2, 100))
    assert verify_fe_certificate(ALL, good)
    # drop an element
    broken = FeCertificate(good.kind, good.seeds, good.depth, good.checked[1:])
    assert not verify_fe_certificate(ALL, broken)
    # lie about the seeds
    lied = FeCertificate(good.kind, (2, 3, 5), good.depth, good.checked)
    assert not verify_fe_certificate(ALL, lied)
    # certified against the wrong oracle
    assert not verify_fe_certificate(ODDS, good)
    # one membership flag set to False
    (pf, _), *rest = good.checked
    unflagged = FeCertificate(good.kind, good.seeds, good.depth, ((pf, False), *rest))
    assert not verify_fe_certificate(ALL, unflagged)


def test_certificate_with_unordered_seeds_fails_verification():
    # recomputing from decreasing seeds is a domain error, which the verifier answers with False
    good = greedy_fe1(ALL, 2, (2, 100))
    assert not verify_fe_certificate(ALL, replace(good, seeds=good.seeds[::-1]))


def test_fegen1_examples():
    out = search_fegen1(ALL, (1, 2, 4, 8), "constant:2", 2)
    assert out.status == "success"
    assert out.state.chosen == (1, 2)
    assert out.state.blocks == ((0,), (1,))
    powers_of_two = SetSpec.from_rule("ipow(2, ilog2(n)) == n")
    out2 = search_fegen1(powers_of_two, (1, 2, 4, 8), "constant:2", 2)
    assert out2.status == "success"
    assert out2.state.chosen == (1, 2)
    out3 = search_fegen1(ODDS, (1, 2), "constant:2", 1)
    assert out3.status == "failure"


def test_fegen1_conclusion_holds():
    # exhaustive recheck of the reported success, done here independently
    out = search_fegen1(ALL, (1, 2, 4, 8), "constant:3", 3)
    assert out.status == "success"
    xs = out.state.chosen
    for mask in range(1, 1 << len(xs)):
        family = [j for j in range(len(xs)) if mask >> j & 1]
        bound = out.state.level_max[min(family)]
        total = sum(xs[j] for j in family)
        for t in range(2, bound + 1):
            assert ALL.contains(t ** total)


def test_fegen1_block_discipline():
    out = search_fegen1(ALL, (3, 1, 4, 1, 5), "constant:2", 2)
    assert out.status == "success"
    blocks = out.state.blocks
    assert min(blocks[1]) > max(blocks[0])
    for j, block in enumerate(blocks):
        assert out.state.chosen[j] == sum((3, 1, 4, 1, 5)[i] for i in block)


def test_fegen1_max_fe_choice():
    out = search_fegen1(ALL, (2, 3, 5, 7), "max-fe1", 2)
    assert out.status == "success"
    # f of the one-element prefix (x_0,) is max fe1 level 0 = x_0
    assert out.state.level_max[1] == out.state.chosen[0]
    with pytest.raises(DomainError):
        search_fegen1(ALL, (1, 2), "max-fe2", 2)
    with pytest.raises(DomainError):
        search_fegen1(ALL, (1, 2), "constant:0", 1)


def test_fegen2_examples():
    out = search_fegen2(ALL, (2, 3, 5), "constant:2", 2)
    assert out.status == "success"
    assert out.state.chosen == (2, 3)
    squares = SetSpec.explicit({n * n for n in range(1, 60)})
    out2 = search_fegen2(squares, (2, 3), "constant:2", 1)
    assert out2.status == "failure"
    out3 = search_fegen2(SetSpec.explicit(set()), (2, 3), "constant:1", 1)
    assert out3.status == "failure"


def test_fegen2_square_set_success():
    squares = SetSpec.explicit({n * n for n in range(1, 200)})
    out = search_fegen2(squares, (4, 9), "constant:1", 1)
    assert out.status == "success"
    assert out.state.chosen == (4,)


def test_fegen2_conclusion_holds():
    # exhaustive recheck of the reported success, done here independently;
    # the even carrier element 2 fails (2**1 is not odd) and must be skipped
    out = search_fegen2(ODDS, (2, 3, 5, 7), "constant:3", 3)
    assert out.status == "success"
    xs = out.state.chosen
    assert xs == (3, 5, 7)
    for mask in range(1, 1 << len(xs)):
        family = [j for j in range(len(xs)) if mask >> j & 1]
        bound = out.state.level_max[min(family)]
        product = 1
        for j in family:
            product *= xs[j]
        for t in range(1, bound + 1):
            assert ODDS.contains(product ** t)


@pytest.mark.parametrize("multiplicative, ys, wrong_value, overlap", [
    (False, (1, 2, 4, 8), (1, 3), (((0, 1), (1,)), (3, 2))),
    (True, (2, 3, 5), (2, 4), (((0, 1), (1,)), (6, 3))),
])
def test_verify_state_detects_tampering(multiplicative, ys, wrong_value, overlap):
    search = search_fegen2 if multiplicative else search_fegen1
    good = search(ALL, ys, "constant:2", 2).state
    mode = _parse_f_spec("constant:2", multiplicative)
    _verify_state(ALL, ys, good, mode, Caps(), multiplicative)
    with pytest.raises(AssertionError, match="disagrees with its block"):
        _verify_state(ALL, ys, replace(good, chosen=wrong_value), mode, Caps(),
                      multiplicative)
    blocks, chosen = overlap
    with pytest.raises(AssertionError, match="increasing-index"):
        _verify_state(ALL, ys, replace(good, blocks=blocks, chosen=chosen), mode,
                      Caps(), multiplicative)
    # ODDS rejects the first query, 2**1: t = 2 over x_0 = 1, or x_0 = 2 to t = 1
    with pytest.raises(AssertionError, match="fails its own conditions"):
        _verify_state(ODDS, ys, good, mode, Caps(), multiplicative)


def test_verify_state_detects_a_wrong_f_value():
    good = search_fegen1(ALL, (1, 2, 4, 8), "constant:2", 2).state
    mode = _parse_f_spec("constant:2", False)
    with pytest.raises(AssertionError, match="recorded f value disagrees with recomputation"):
        _verify_state(ALL, (1, 2, 4, 8), replace(good, level_max=(2, 3)), mode, Caps(), False)


def test_fegen_budget_inconclusive():
    out = search_fegen1(ODDS, (1, 2, 3, 4, 5, 6), "constant:2", 3, caps=Caps(search_budget=5))
    assert out.status == "inconclusive"
    assert out.reason == "budget exhausted"
    with pytest.raises(TypeError):  # caps is keyword-only; no positional budget
        search_fegen1(ODDS, (1, 2, 3, 4, 5, 6), "constant:2", 3, 5)


def test_fegen_validation():
    with pytest.raises(DomainError):
        search_fegen1(ALL, (), "constant:2", 1)
    with pytest.raises(DomainError):
        search_fegen1(ALL, (1, 2), "constant:2", 0)
    from exporamsey import CapacityError

    with pytest.raises(CapacityError):
        search_fegen1(ALL, tuple(range(1, 40)), "constant:2", 1)


def test_safe_pow_message_past_the_digit_limit():
    from exporamsey import CapacityError

    with pytest.raises(CapacityError, match=r"^3\*\*8388608 too large for a membership query$"):
        _safe_pow(3, 2 ** 23)
    # a decimal past the int-to-str digit limit is written as its bit length
    with pytest.raises(CapacityError, match=r"^<4194305-bit integer>\*\*2 too large"):
        _safe_pow(2 ** 2 ** 22, 2)
    # so a carrier that wide is one undecidable candidate, not a ValueError
    out = search_fegen2(parse_set_spec("all"), (3, 2 ** 2 ** 22, 5), "constant:1", 2)
    assert (out.status, out.state.chosen, out.explored) == ("success", (3, 5), 4)


def test_unwritable_violator_is_a_capacity_error():
    from exporamsey import CapacityError

    if not getattr(sys, "get_int_max_str_digits", lambda: 0)():
        pytest.skip("no int-to-str digit limit")
    # FP(Y) fails first at y1 * y2, whose decimal passes the digit limit
    ys = (10 ** 2200 + 1, 10 ** 2200 + 3)
    with pytest.raises(CapacityError, match="^a 14617-bit integer"):
        verify_fecor(SetSpec.explicit({2, 3, 5, 8, *ys}), (2, 3), ys, 1,
                     Caps(value_bit_cap=20000))


def test_fegen_deterministic():
    a = search_fegen1(ALL, (1, 2, 4, 8, 16), "constant:2", 3)
    b = search_fegen1(ALL, (1, 2, 4, 8, 16), "constant:2", 3)
    assert a == b
    assert a.state.blocks == ((0,), (1,), (2,))  # lexicographically least


def test_verify_fecor_examples():
    rep = verify_fecor(SetSpec.residues(1, 0), (2, 3), (2, 3), 1)
    assert rep.all_hold()
    rep2 = verify_fecor(ODDS, (3, 5), (3, 5), 1)
    by_name = {c.name: c for c in rep2.checks}
    assert by_name["FS(X)"].verdict == "fails"
    assert by_name["FS(X)"].violator == "8"
    assert by_name["FE1(X)"].verdict == "holds"
    rep3 = verify_fecor(EVENS, (2, 4), (2, 4), 1)
    by_name3 = {c.name: c for c in rep3.checks}
    assert by_name3["FP(Y)"].verdict == "holds"
    assert by_name3["FE2(Y)"].verdict == "holds"


def test_verify_fecor_inconclusive_on_window():
    narrow = SetSpec.residues(2, 1, window=(1, 100))
    rep = verify_fecor(narrow, (3, 5), (3, 5), 1)
    by_name = {c.name: c for c in rep.checks}
    assert by_name["FE1(X)"].verdict == "inconclusive"  # 3**5 = 243 > 100


@pytest.mark.parametrize("spec, seeds, caps, expected", [
    (ALL, (2, 3), Caps(exp_bit_cap=1), [
        ("FS(X)", "holds", None),
        ("FE1(X)", "inconclusive", "1 tower elements dropped"),
        ("FP(Y)", "holds", None),
        ("FE2(Y)", "inconclusive", "1 tower elements dropped"),
    ]),
    (ALL, (3, 5), Caps(value_bit_cap=3), [
        ("FS(X)", "holds", None),
        ("FE1(X)", "inconclusive", "value of 3^5 exceeds value_bit_cap 3"),
        ("FP(Y)", "inconclusive", "product bit length 4 exceeds value_bit_cap 3"),
        ("FE2(Y)", "inconclusive", "value of 5^3 exceeds value_bit_cap 3"),
    ]),
    # a violator met before an unevaluable element decides the check
    (EVENS, (3, 5), Caps(value_bit_cap=3), [
        ("FS(X)", "fails", "3"),
        ("FE1(X)", "fails", "3"),
        ("FP(Y)", "inconclusive", "product bit length 4 exceeds value_bit_cap 3"),
        ("FE2(Y)", "fails", "3"),
    ]),
])
def test_verify_fecor_capacity_texts_pinned(spec, seeds, caps, expected):
    rep = verify_fecor(spec, seeds, seeds, 1, caps)
    assert [(c.name, c.verdict, c.violator) for c in rep.checks] == expected


def test_verify_fecor_validation():
    with pytest.raises(DomainError):
        verify_fecor(ALL, (3, 2), (2, 3), 1)
    with pytest.raises(DomainError):
        verify_fecor(ALL, (2,), (2, 3), 1)


def test_records_shape():
    cert = greedy_fe1(ALL, 1, (2, 50))
    rec = certificate_record(cert)
    assert rec["status"] == "success"
    assert rec["X"] == ["2", "3"]
    assert all(item["member"] for item in rec["certificate"])
    fail = greedy_fe1(EVENS, 2, (2, 10 ** 4))
    frec = failure_record(fail)
    assert frec == {"status": "failure", "step": 2, "reason": "empty intersection"}
    out = outcome_record(search_fegen1(ALL, (1, 2), "constant:2", 1))
    assert out["status"] == "success"
    assert out["state"]["x"] == ["1"]


def test_random_small_universes_agree_with_bruteforce():
    # greedy type-I step condition re-checked by direct simulation
    rng = random.Random(67)
    for _ in range(10):
        mod = rng.randrange(1, 4)
        spec = SetSpec.residues(mod, 0) if mod > 1 else ALL
        got = greedy_fe1(spec, 1, (2, 60))
        if isinstance(got, GreedyFailure):
            continue
        x0, x1 = got.seeds
        # x0 least member > 1, x1 least valid successor
        assert all(not spec.contains(v) for v in range(2, x0))
        n0 = x0
        for m in range(x0 + 1, x1):
            ok = spec.contains(m) and all(
                spec.contains(j ** m) for j in range(2, n0 + 1)
            )
            assert not ok


def _oracle_cases():
    """Fixed cases whose repeated block values are undecidable (out of the
    window, or too wide to ask), then seeded random ones."""
    yield False, lambda n: n % 5 != 0, (1, 20), (1, 2, 3, 4), "constant:3", 2, 10 ** 6
    yield True, lambda n: n % 4 != 2, (1, 40), (2, 3, 4, 6), "constant:2", 2, 10 ** 6
    yield False, lambda n: n % 3 != 0, None, (1, 2 ** 21, 2, 4), "constant:3", 3, 10 ** 6
    yield False, lambda n: n % 7 != 1, (1, 300), (1, 2, 3, 4, 5), "max", 3, 10 ** 6
    rng = random.Random(26)
    for _ in range(150):
        multiplicative = rng.random() < 0.5
        ys = tuple(rng.randint(2 if multiplicative else 1, 9)
                   for _ in range(rng.randint(2, 6)))
        f_spec = rng.choice(["constant:1", "constant:2", "constant:3", "max"])
        # a max-tower f is unbounded in size: only a window stops its t range
        window = None
        if f_spec == "max" or rng.random() < 0.5:
            window = (rng.randint(0, 2), rng.choice([20, 60, 200, 1000]))
        m = rng.randint(2, 13)
        allowed = frozenset(rng.sample(range(m), rng.randint(1, m)))
        yield (multiplicative, lambda n, m=m, allowed=allowed: n % m in allowed, window, ys,
               f_spec, rng.randint(1, 3), rng.choice([5, 50, 10 ** 6]))


def test_block_search_matches_oracle():
    seen = set()
    for multiplicative, member, window, ys, f_spec, steps, budget in _oracle_cases():
        search = search_fegen2 if multiplicative else search_fegen1
        full_spec = ("max-fe2" if multiplicative else "max-fe1") if f_spec == "max" else f_spec
        out = search(SetSpec(window, member), ys, full_spec, steps,
                     caps=Caps(search_budget=budget))
        state = out.state
        got = (out.status, out.explored, out.reason,
               *((state.chosen, state.blocks, state.level_max) if state else (None,) * 3))
        want = block_search_oracle(member, window, ys, f_spec, steps, multiplicative, budget)
        assert got == want, (multiplicative, window, ys, f_spec, steps, budget)
        seen.add(out.reason.split(" on ")[0])
    assert seen == {"", "no valid block choice", "oracle range", "budget exhausted"}


# Every membership query the block search and its re-verification make, in
# order (the search asks about each distinct block value once per prefix),
# pinned by count and by the sha256 of the values in hex: a success,
# a failure, windowed specs (OracleRangeError) and carriers whose sums are too
# wide for a query (_safe_pow's CapacityError), each counted as undecidable.
@pytest.mark.parametrize("search, member, window, ys, f_spec, steps, outcome, count, digest", [
    (search_fegen1, lambda n: n % 2 == 0 or n % 3 == 0, None, (1, 2, 3, 4), "constant:3", 2,
     ("success", 2, ""), 12, "753a49b8e039759a"),
    (search_fegen1, lambda n: n % 7 != 1, None, (1, 2, 3, 4, 5, 6), "constant:3", 3,
     ("failure", 159, "no valid block choice"), 226, "ec772d3fa236890c"),
    (search_fegen1, lambda n: n % 7 != 1, None, (1, 2, 3, 4, 5), "max-fe1", 3,
     ("inconclusive", 69, "oracle range on 9 candidates"), 130, "db64eec77be95ef1"),
    (search_fegen2, lambda n: n % 2 == 1, None, (2, 3, 5, 7), "constant:3", 3,
     ("success", 11, ""), 50, "d21675f39ca32057"),
    (search_fegen1, lambda n: n % 11 != 5, None, (1, 2, 3, 4, 5, 6, 7), "constant:2", 5,
     ("success", 209, ""), 684, "89a3dbceae2e96e4"),
    (search_fegen2, lambda n: n % 8 != 7, None, (1, 3, 5, 7, 9, 11, 13), "constant:2", 5,
     ("success", 6, ""), 129, "6bf9577f0345bb5a"),
    # the f value of min F, not of another member of F, bounds t
    (search_fegen1, lambda n: n % 7 != 3, None, (1, 2, 3, 4), "max-fe1", 3,
     ("success", 16, ""), 32, "8ff02f0a20c6d4a2"),
    (search_fegen2, lambda n: n % 3 != 2, None, (3, 4, 5, 7), "max-fe2", 3,
     ("success", 5, ""), 150, "77819b569f4f35b5"),
    (search_fegen2, lambda n: n % 4 != 3, None, (3, 5, 7, 9), "constant:2", 2,
     ("success", 4, ""), 14, "74d35fcf62655f15"),
    (search_fegen1, lambda n: n % 5 != 0, (1, 20), (1, 2, 3, 4), "constant:3", 2,
     ("inconclusive", 25, "oracle range on 23 candidates"), 13, "63b47f9fbdd4ec27"),
    (search_fegen2, lambda n: n % 4 != 2, (1, 40), (2, 3, 5, 7), "constant:2", 2,
     ("inconclusive", 19, "oracle range on 12 candidates"), 19, "cb37fc86e1d4e422"),
    (search_fegen1, lambda n: n % 2 == 0, None, (2 ** 21 + 1, 1, 2, 3), "constant:2", 2,
     ("success", 10, ""), 6, "8cf5caea573292ae"),
    (search_fegen1, lambda n: n % 3 != 0, None, (1, 2 ** 21, 2, 4), "constant:3", 3,
     ("inconclusive", 15, "oracle range on 7 candidates"), 16, "edde924ccc3040f2"),
])
def test_block_search_queries_pinned(search, member, window, ys, f_spec, steps, outcome,
                                     count, digest):
    asked = []
    spy = SetSpec(window, lambda n: asked.append(n) or member(n))
    out = search(spy, ys, f_spec, steps)
    assert (out.status, out.explored, out.reason) == outcome
    text = ",".join(format(n, "x") for n in asked)
    assert (len(asked), hashlib.sha256(text.encode()).hexdigest()[:16]) == (count, digest)
