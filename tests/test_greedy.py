"""Greedy recurrences, block searches, and certificate verification."""

import random
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
    search_fegen1,
    search_fegen2,
    verify_fe_certificate,
    verify_fecor,
)
from exporamsey.greedy import (
    _parse_f_spec,
    _verify_state,
    certificate_record,
    failure_record,
    outcome_record,
)
from exporamsey.structures import max_element_value

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


def test_fegen_budget_inconclusive():
    out = search_fegen1(ODDS, (1, 2, 3, 4, 5, 6), "constant:2", 3, budget=5)
    assert out.status == "inconclusive"
    assert out.reason == "budget exhausted"


def test_fegen_validation():
    with pytest.raises(DomainError):
        search_fegen1(ALL, (), "constant:2", 1)
    with pytest.raises(DomainError):
        search_fegen1(ALL, (1, 2), "constant:2", 0)
    from exporamsey import CapacityError

    with pytest.raises(CapacityError):
        search_fegen1(ALL, tuple(range(1, 40)), "constant:2", 1)


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
