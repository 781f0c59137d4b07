"""Compiled rules, one value or a batch at a time, against Python equivalents and oracles."""

import random
import re

import pytest

from exporamsey import RuleEvaluationError, parse_rule
from exporamsey import rules
from exporamsey.coloring import count_mono_triples_at

from oracles import RuleOracleError, mono_counts_oracle, rule_oracle


def tdiv(a, b):
    """Division truncating toward zero."""
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def tmod(a, b):
    """The remainder that goes with tdiv: it takes the sign of a."""
    return a - b * tdiv(a, b)


def ilog2(x):
    return x.bit_length() - 1


# The census rules of the benchmark (perfbench/workloads.py), written out in
# Python; the final % k is the mathematical modulus.
CENSUS_RULES = {
    ("n % 2", 2): lambda n: tmod(n, 2) % 2,
    ("ilog2(n) % 3", 3): lambda n: tmod(ilog2(n), 3) % 3,
    ("(n / 7) % 2", 2): lambda n: tmod(tdiv(n, 7), 2) % 2,
    ("if(n % 3 == 0, 1, 0)", 2): lambda n: (1 if tmod(n, 3) == 0 else 0) % 2,
    ("ilog2(ilog2(n)) % 2", 2): lambda n: tmod(ilog2(ilog2(n)), 2) % 2,
    ("(n * n + 1) % 3", 3): lambda n: tmod(n * n + 1, 3) % 3,
    ("n % 5", 5): lambda n: tmod(n, 5) % 5,
    ("ipow(n % 4, 2) % 3", 3): lambda n: tmod(tmod(n, 4) ** 2, 3) % 3,
}


@pytest.mark.parametrize("source, k", sorted(CENSUS_RULES))
def test_census_rules_match_python(source, k):
    rule, expected = parse_rule(source, k), CENSUS_RULES[(source, k)]
    for n in range(2, 5001):
        assert rule.color(n) == expected(n), n


def test_division_by_constants_of_either_sign():
    # positive constant divisors take a shortcut; it must truncate like the rest
    cases = {
        "n / 7": lambda n: tdiv(n, 7),
        "n % 7": lambda n: tmod(n, 7),
        "n / -7": lambda n: tdiv(n, -7),
        "n % -7": lambda n: tmod(n, -7),
        "(n - 30) / 4 * 100 + (n - 30) % 4": lambda n: tdiv(n - 30, 4) * 100 + tmod(n - 30, 4),
        "7 % (n - 30)": lambda n: tmod(7, n - 30) if n != 30 else None,
    }
    for source, expected in cases.items():
        rule = parse_rule(source, 1000)
        for n in range(-60, 61):
            if expected(n) is None:
                with pytest.raises(RuleEvaluationError, match="division by zero"):
                    rule.color(n)
            else:
                assert rule.color(n) == expected(n) % 1000, (source, n)
    for source in ("n % 0", "n / 0", "n % (n - n)"):
        with pytest.raises(RuleEvaluationError, match="n=5: division by zero"):
            parse_rule(source, 2).color(5)


def _spy_helpers(monkeypatch):
    """The list to which every later call of _ilog2 or _ipow appends its name."""
    calls = []
    for name in ("_ilog2", "_ipow"):
        # compiled rules read their helpers from this dict when they run
        monkeypatch.setitem(rules._GLOBALS, name, lambda *args, name=name, helper=rules._GLOBALS[name]:
                            calls.append(name) or helper(*args))
    return calls


def test_inline_helpers_run_only_to_raise(monkeypatch):
    calls = _spy_helpers(monkeypatch)
    ns = range(2, 10 ** 4 + 1)
    # the census rules whose ilog2 and ipow compile inline
    for source, k in [("ilog2(n) % 3", 3), ("ilog2(ilog2(n)) % 2", 2), ("ipow(n % 4, 2) % 3", 3)]:
        rule, expected = parse_rule(source, k), [CENSUS_RULES[(source, k)](n) for n in ns]
        assert rule.colors(ns) == expected, source
        assert [rule.evaluate(n) % k for n in ns] == expected, source
    assert calls == []
    rule = parse_rule("ilog2(n - 4)", 2)
    for run in (rule.evaluate, lambda n: rule.colors([n])):
        with pytest.raises(RuleEvaluationError) as err:
            run(4)
        assert str(err.value) == "rule evaluation failed at n=4: ilog2 of non-positive value 0"
        assert calls == ["_ilog2"]
        calls.clear()


def _agrees(source, n, expected):
    """evaluate, colors and color of the rule at n give expected(), or raise its error.

    Returns whether expected() raised.
    """
    k = 5
    rule = parse_rule(source, k)
    try:
        value = expected()
    except RuleEvaluationError as exc:
        for run in (rule.evaluate, lambda n: rule.colors([n]), rule.color):
            with pytest.raises(RuleEvaluationError) as err:
                run(n)
            assert str(err.value) == str(exc), (source, n)
        return True
    assert rule.evaluate(n) == value, (source, n)
    assert rule.colors([n]) == [value % k], (source, n)
    assert rule.color(n) == value % k, (source, n)
    return False


@pytest.mark.parametrize("c", [0, 1, 2, 3])
def test_ipow_guard_at_the_size_bound(c, monkeypatch):
    bits = rules._IPOW_RESULT_BITS // max(c, 1)
    # the base n * 2^(bits - 1), from two ipow that each stay within the bound
    half = (bits - 1) // 2
    source = f"ipow(ipow(2, {half}) * ipow(2, {bits - 1 - half}) * n, {c})"
    raised = [_agrees(source, n, lambda: rules._ipow(n << (bits - 1), c, n))
              for n in (1, -1, 2, -2, 3, -3)]
    # a base of `bits` bits passes the guard, one of a bit more fails it
    assert raised == [False, False, True, True, True, True]
    calls = _spy_helpers(monkeypatch)
    parse_rule(source, 2).colors([1, -1])
    assert calls == []  # and inline


def test_ipow_exponents_that_keep_the_helper():
    limit = rules._IPOW_EXP_LIMIT
    for n in (0, 1, -1, 2, -3, 4):
        for b in (-2, limit + 1, limit):  # limit is the largest exponent compiled inline
            _agrees(f"ipow(n, {b})" if b >= 0 else f"ipow(n, -{-b})", n,
                    lambda: rules._ipow(n, b, n))
        _agrees("ipow(n, n - 2)", n, lambda: rules._ipow(n, n - 2, n))
    # the bit-length guard alone would let this through
    assert _agrees(f"ipow(n, {limit + 1})", 1, lambda: rules._ipow(1, limit + 1, 1))


def test_ilog2_guard():
    operands = {"n": lambda n: n, "n - 4": lambda n: n - 4, "n > 3": lambda n: int(n > 3),
                "if(n < 2, n, 8)": lambda n: n if n < 2 else 8,
                "n == 1 or n == 2": lambda n: int(n in (1, 2))}
    for operand, x in operands.items():
        for n in (-5, -1, 0, 1, 2, 3, 4, 5, 8, 1 << 70):
            _agrees(f"ilog2({operand})", n, lambda: rules._ilog2(x(n), n))
    assert _agrees("ilog2(n)", 0, lambda: rules._ilog2(0, 0))
    assert not _agrees("ilog2(n)", 1, lambda: rules._ilog2(1, 1))


def test_inline_operators_share_one_temporary():
    # the `/` by a constant, both ilog2 and the ipow each set the walrus temporary
    source = "ilog2((n * n) / 7) + ipow(ilog2(n + 1), 3)"
    for n in range(-20, 201):
        _agrees(source, n, lambda: rules._ilog2(tdiv(n * n, 7), n)
                + rules._ipow(rules._ilog2(n + 1, n), 3, n))
    assert parse_rule(source, 1000).evaluate(100) == ilog2(10000 // 7) + ilog2(101) ** 3


def test_and_or_short_circuit():
    # the right operand would divide by zero at n = 3
    assert parse_rule("n < 4 or 1 / (n - 3)", 2).color(3) == 1
    assert parse_rule("n > 3 and 1 / (n - 3)", 2).color(3) == 0
    assert parse_rule("n < 4 or 1 / (n - 3)", 2).color(4) == 1
    assert parse_rule("n < 4 or 1 / (n - 3)", 2).color(5) == 0  # 1 / 2 truncates to 0
    assert parse_rule("n > 3 and 1 / (n - 3)", 2).color(4) == 1
    with pytest.raises(RuleEvaluationError, match="n=3"):
        parse_rule("n < 3 or 1 / (n - 3)", 2).color(3)


_ARITY = {"neg": 1, "not": 1, "ilog2": 1, "ipow": 2, "if": 3, "and": 2, "or": 2,
          **dict.fromkeys(["+", "-", "*", "/", "%", "==", "!=", "<", "<=", ">", ">="], 2)}
_CONSTANTS = (0, 1, 2, 3, 7, 64, 1 << 21, -1, -2, -7)


def random_tree(rng, depth):
    """A random rule tree in the tuple form of `oracles.rule_oracle`."""
    if depth == 0 or rng.random() < 0.2:
        return ("n",) if rng.random() < 0.5 else ("const", rng.choice(_CONSTANTS))
    op = rng.choice(sorted(_ARITY))
    args = [random_tree(rng, depth - 1) for _ in range(_ARITY[op])]
    if op in ("/", "%", "ipow") and rng.random() < 0.5:
        args[1] = ("const", rng.choice(_CONSTANTS))  # the constant divisor and exponent paths
    return (op, *args)


def render(tree):
    """Rule source for a tree, every compound operand in parentheses."""
    op = tree[0]
    if op == "n":
        return "n"
    if op == "const":
        return str(tree[1]) if tree[1] >= 0 else f"(-{-tree[1]})"
    args = [render(t) for t in tree[1:]]
    if op == "neg":
        return f"(-{args[0]})"
    if op == "not":
        return f"(not {args[0]})"
    if op in ("ilog2", "ipow", "if"):
        return f"{op}({', '.join(args)})"
    return f"({args[0]} {op} {args[1]})"


_ERROR_KINDS = {"division by zero": "division by zero", "ilog2 of non-positive": "ilog2",
                "ipow with negative exponent": "ipow exponent", "result too large": "ipow size"}


@pytest.mark.parametrize("seed", range(4))
def test_compiled_rules_match_oracle(seed):
    rng = random.Random(f"rule-trees-{seed}")
    for _ in range(60):
        tree, k = random_tree(rng, rng.randrange(1, 7)), rng.randrange(1, 6)
        source = render(tree)
        rule = parse_rule(source, k)
        for n in range(-50, 201):
            try:
                expected = rule_oracle(tree, n) % k
            except RuleOracleError as exc:
                with pytest.raises(RuleEvaluationError) as err:
                    rule.color(n)
                message = re.fullmatch(f"rule evaluation failed at n={n}: (.*)", str(err.value))
                assert message, (source, n, str(err.value))
                kinds = [kind for text, kind in _ERROR_KINDS.items() if text in message[1]]
                assert kinds == [exc.kind], (source, n, str(err.value))
            else:
                assert rule.color(n) == expected, (source, n)


@pytest.mark.parametrize("seed", range(2))
def test_batch_colors_match_color(seed):
    rng = random.Random(f"rule-batches-{seed}")
    for _ in range(60):
        rule = parse_rule(render(random_tree(rng, rng.randrange(1, 7))), rng.randrange(1, 7))
        expected = []
        for n in range(-50, 201):
            try:
                expected.append(rule.color(n))
            except RuleEvaluationError as exc:
                # the batch fails too, with the same error
                with pytest.raises(RuleEvaluationError) as err:
                    rule.colors([n])
                assert str(err.value) == str(exc)
                expected.append(None)
            else:
                assert rule.colors([n]) == [expected[-1]], (rule.source, n)
        if None not in expected:
            assert rule.colors(range(-50, 201)) == expected, rule.source


def test_batch_colors_compile_on_first_use(monkeypatch):
    compiled = []
    function = rules._function
    monkeypatch.setattr(rules, "_function",
                        lambda param, body: compiled.append(param) or function(param, body))
    rule = parse_rule("ilog2(n) % 3", 3)
    assert compiled == []  # parsing compiles nothing
    assert count_mono_triples_at(rule, [100])[0].triple_count == 16
    assert compiled == ["ns"]  # counting compiles the batch function alone
    assert rule.colors([2, 4, 8]) == [1, 2, 0]
    assert rule.colors(range(2, 5)) == [1, 1, 2]
    assert rule.evaluate(5) == 2
    assert rule.color(8) == 0
    assert compiled == ["ns", "n"]  # each function compiles once


def _from_depth(frames, fn):
    return _from_depth(frames - 1, fn) if frames else fn()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except RuleEvaluationError as exc:
        return str(exc)


def test_batch_colors_at_the_depth_limit():
    depth = rules._MAX_RULE_DEPTH
    for source in ["(" * depth + "n" + ")" * depth, "-" * depth + "n",
                   "if(n, " * depth + "n" + ", 0)" * depth, "n" + " / 1" * depth,
                   "(" * (depth - 1) + "n" + " % 9)" * (depth - 1),
                   "ilog2(" * depth + "n" + ")" * depth, "ipow(" * depth + "n" + ", 1)" * depth]:
        rule = parse_rule(source, 1000)
        # compiled from a caller 500 frames deep, as the single-value function is
        assert (_from_depth(500, lambda: _outcome(rule.colors, [7, 8]))
                == _outcome(lambda ns: [rule.color(n) for n in ns], [7, 8])), source
    # the ilog2 nest reaches ilog2(0) within five levels
    rule = parse_rule("ilog2(" * depth + "n" + ")" * depth, 2)
    assert _outcome(rule.colors, [7]) == "rule evaluation failed at n=7: ilog2 of non-positive value 0"


def _bounds(rng):
    """0 to 4 bounds: small, squares and cubes and their neighbours, up to 10**7."""
    pool = list(range(21)) + [x ** e + d for x in range(2, 30) for e in (2, 3) for d in (-1, 0, 1)]
    bounds = [rng.choice(pool) for _ in range(rng.randrange(3))]
    if rng.random() < 0.5:
        bounds.append(rng.randrange(10 ** rng.randrange(2, 8)))
    if bounds and rng.random() < 0.3:
        bounds.append(rng.choice(bounds))  # a repeat
    rng.shuffle(bounds)
    return bounds


# trees that colour most bounds in several cells
_MIXED_TREES = [("%", ("n",), ("const", 7)), ("%", ("ilog2", ("n",)), ("const", 3)),
                ("%", ("+", ("*", ("n",), ("n",)), ("const", 1)), ("const", 7))]


@pytest.mark.parametrize("seed", range(3))
def test_table_counts_match_direct_loop(seed):
    rng = random.Random(f"rule-counts-{seed}")
    for i in range(50):
        tree = _MIXED_TREES[i % 5] if i % 5 < 3 else random_tree(rng, rng.randrange(1, 6))
        if i % 5 == 3:  # fails at t, if the pass colours t
            t = rng.choice([8, 16, 27, 64, 81, 100, 256, 1000, rng.randrange(2, 5000)])
            tree = ("%", ("/", ("const", 100), ("-", ("n",), ("const", t))), ("const", 3))
        k, bounds = rng.randrange(1, 7), _bounds(rng)
        cache = {}

        def colour(v):
            if v not in cache:
                try:
                    cache[v] = rule_oracle(tree, v) % k
                except RuleOracleError:
                    cache[v] = None
            return cache[v]

        rule = parse_rule(render(tree), k)
        failing, expected = mono_counts_oracle(colour, bounds)
        if failing is not None:
            with pytest.raises(RuleEvaluationError, match=f"at n={failing}:"):
                count_mono_triples_at(rule, bounds)
            continue
        got = count_mono_triples_at(rule, bounds)
        assert [c.n_max for c in got] == bounds
        for counts, (cells, rainbow) in zip(got, expected):
            assert counts.per_cell == tuple(cells.get(cell, 0) for cell in range(k)), rule.source
            assert counts.rainbow == rainbow, rule.source
