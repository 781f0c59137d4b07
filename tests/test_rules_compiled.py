"""Compiled rules against hand-written Python equivalents and an independent evaluator."""

import random
import re

import pytest

from exporamsey import RuleEvaluationError, parse_rule

from oracles import RuleOracleError, rule_oracle


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
    if op in ("/", "%") and rng.random() < 0.5:
        args[1] = ("const", rng.choice(_CONSTANTS))  # the constant-divisor path
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
