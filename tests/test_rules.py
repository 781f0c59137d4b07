"""Rule-DSL parsing and evaluation semantics."""

import random
import string
import sys

import pytest

from exporamsey import DomainError, RuleEvaluationError, RuleSyntaxError, parse_rule
from exporamsey.rules import _MAX_RULE_DEPTH as DEPTH
from exporamsey.rules import _tokenize

from oracles import rule_tokens_oracle


def color(src, n, k=2):
    return parse_rule(src, k).color(n)


def test_parity_rule():
    rule = parse_rule("n % 2", 2)
    assert [rule.color(n) for n in range(2, 8)] == [0, 1, 0, 1, 0, 1]


def test_nested_ilog2():
    rule = parse_rule("ilog2(ilog2(n)) % 2", 2)
    # floor(log2 floor(log2 n)): n=4 -> ilog2(2)=1 -> 1
    assert rule.color(4) == 1
    assert rule.color(16) == 0  # ilog2(16)=4, ilog2(4)=2
    assert rule.color(2) == 0  # ilog2(2)=1, ilog2(1)=0


def test_syntax_error_position():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule("n %", 2)
    assert err.value.position == 3
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule("n + $", 2)
    assert err.value.position == 4
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule("foo(n)", 2)
    assert err.value.position == 0
    with pytest.raises(RuleSyntaxError):
        parse_rule("ipow(n 2)", 2)
    with pytest.raises(RuleSyntaxError):
        parse_rule("n n", 2)


def test_operators_and_precedence():
    assert color("2 + 3 * 4", 0, 100) == 14
    assert color("(2 + 3) * 4", 0, 100) == 20
    assert color("10 - 3 - 4", 0, 100) == 3
    assert color("7 / 2", 0, 100) == 3
    assert color("-7 / 2", 0, 100) == 97  # trunc(-3.5) = -3, then mod 100
    assert color("7 % 3", 0, 100) == 1
    assert color("-7 % 3", 0, 100) == 99  # C-style remainder -1, then mod 100
    assert color("-n % 2", 3, 100) == 99  # unary minus binds tighter than %


def test_comparisons_and_booleans():
    assert color("n < 5", 3, 2) == 1
    assert color("n < 5", 7, 2) == 0
    assert color("n >= 2 and n <= 4", 3, 2) == 1
    assert color("n == 2 or n == 4", 3, 2) == 0
    assert color("not n == 2", 3, 2) == 1
    assert color("not (n < 5) and n % 2 == 1", 7, 2) == 1


def test_conditional_and_ipow():
    assert color("if(n % 2 == 0, n / 2, 3 * n + 1)", 6, 1000) == 3
    assert color("if(n % 2 == 0, n / 2, 3 * n + 1)", 7, 1000) == 22
    assert color("ipow(2, 10)", 0, 5000) == 1024
    assert color("ipow(n, 2) == n * n", 9, 2) == 1


def test_conditional_is_lazy():
    # the untaken branch would divide by zero
    assert color("if(n > 0, 1, 1 / 0)", 5, 2) == 1


def test_evaluation_errors_name_input():
    rule = parse_rule("1 / (n - 4)", 2)
    with pytest.raises(RuleEvaluationError, match="n=4"):
        rule.color(4)
    rule2 = parse_rule("ilog2(n - 10)", 2)
    with pytest.raises(RuleEvaluationError, match="n=7"):
        rule2.color(7)
    rule3 = parse_rule("ipow(n, n)", 2)
    with pytest.raises(RuleEvaluationError, match="too large"):
        rule3.color(10 ** 7)


def test_top_level_modulus():
    assert color("n", 7, 3) == 1
    assert color("-1", 0, 5) == 4  # mathematical mod keeps [0, k)
    rule = parse_rule("n * n + 3", 4)
    for n in range(2, 30):
        assert rule.color(n) == (n * n + 3) % 4


def test_rule_determinism():
    a = parse_rule("ilog2(n) % 3", 3)
    b = parse_rule("ilog2(n) % 3", 3)
    for n in range(2, 200):
        assert a.color(n) == b.color(n)


def test_k_validation():
    with pytest.raises(DomainError):
        parse_rule("n", 0)
    parse_rule("0", 1)  # single cell is allowed for counting


# malformed rule source -> (offset, message) of its RuleSyntaxError
_MALFORMED = {
    "n == n == n": (7, "unexpected token '=='"),
    "not 1 <= 1 < 2": (11, "unexpected token '<'"),
    "not n < 1 < 2": (10, "unexpected token '<'"),
    "not not n != n != n": (15, "unexpected token '!='"),
    "n < 1 and 2 > 3 < 4": (16, "unexpected token '<'"),
    "1 < 2 or 3 < 4 < 5": (15, "unexpected token '<'"),
    "n == (n == n) == n": (14, "unexpected token '=='"),
    "(n < n < n)": (7, "expected ')'"),
    "ilog2(n < 1 < 2)": (12, "expected ')'"),
    "n < not n": (4, "expected an operand"),
    "- not n": (2, "expected an operand"),
    "n % not 2": (4, "expected an operand"),
    "n < -not n": (5, "expected an operand"),
    "n - - - n * not n": (12, "expected an operand"),
    "n + * n": (4, "expected an operand"),
    "* n": (0, "expected an operand"),
    "n and or n": (6, "expected an operand"),
    "n and": (5, "expected an operand"),
    "n or not": (8, "expected an operand"),
    "": (0, "expected an operand"),
    "   ": (3, "expected an operand"),
    "()": (1, "expected an operand"),
    "ilog2()": (6, "expected an operand"),
    "(n": (2, "expected ')'"),
    "(n,)": (2, "expected ')'"),
    "ilog2(n": (7, "expected ')'"),
    "ipow(n, 2, 3)": (9, "expected ')'"),
    "ipow(n)": (6, "expected ','"),
    "if(n, n)": (7, "expected ','"),
    "if(n < 2, 1 2)": (12, "expected ','"),
    "ilog2 n": (6, "expected '('"),
    "n)": (1, "unexpected token ')'"),
    "n n": (2, "unexpected token 'n'"),
    "n, n": (1, "unexpected token ','"),
    "n => 2": (2, "incomplete operator '='"),
    "n ! 2": (2, "incomplete operator '!'"),
    "n_1": (0, "unknown identifier 'n_1'"),
    "n + \u00b2": (4, "unexpected character '\u00b2'"),  # a digit, not a decimal one
}
# a literal with more digits than int() converts, where it has a limit
_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
if _DIGIT_LIMIT:
    _MALFORMED["n + " + "1" * (_DIGIT_LIMIT + 1)] = (
        4, f"integer literal longer than {_DIGIT_LIMIT} digits")


@pytest.mark.parametrize("source", _MALFORMED,
                         ids=lambda s: s if len(s) <= 80 else f"{s[:8]}...({len(s)} chars)")
def test_malformed_rules_pinned(source):
    position, message = _MALFORMED[source]
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule(source, 2)
    assert err.value.position == position
    assert str(err.value) == f"syntax error at position {position}: {message}"


def _left_nested(levels, tail):
    """levels parenthesised `+ n` around n, then `tail`: height levels + tail's chain."""
    return "(" * levels + "n" + "+ n)" * levels + tail


# rule source -> offset of the first token past the depth limit
_TOO_DEEP = {
    "(" * 300 + "n" + ")" * 300: DEPTH,
    "(" * 300 + "n" + " + n)" * 300: DEPTH,
    "(n + " * 300 + "n" + ")" * 300: 5 * DEPTH,
    "+".join(["n"] * 1000): 2 * DEPTH + 1,
    "n" + " / 2" * 300: 4 * DEPTH + 2,
    _left_nested(DEPTH - 1, " + n + n"): len(_left_nested(DEPTH - 1, " + n ")),
    "-" * 10000 + "n": DEPTH,
    "not " * 10000 + "n": 4 * DEPTH,
    "ilog2(" * 300 + "n" + ")" * 300: 6 * DEPTH,
    "ipow(n, " * 300 + "n" + ")" * 300: 8 * DEPTH,
    "if(n, n, " * 300 + "n" + ")" * 300: 9 * DEPTH,
    "n < " + "(n == " * 300 + "n" + ")" * 300: 4 + 6 * DEPTH,
}


@pytest.mark.parametrize("source", _TOO_DEEP, ids=range(len(_TOO_DEEP)))
def test_deep_rules_refused_at_the_offending_token(source):
    with pytest.raises(RuleSyntaxError, match=f"nests deeper than {DEPTH} levels") as err:
        parse_rule(source, 2)
    assert err.value.position == _TOO_DEEP[source]


def _call_from_depth(frames, fn):
    return _call_from_depth(frames - 1, fn) if frames else fn()


def test_rules_at_the_depth_limit_evaluate():
    # each at the limit by one measure: nesting of parentheses, arguments or
    # unary operators, or height of the tree
    cases = {
        "(" * DEPTH + "n" + ")" * DEPTH: 7,
        "(" * (DEPTH - 1) + "n" + " % 9)" * (DEPTH - 1): 7,
        "+".join(["n"] * (DEPTH + 1)): 7 * (DEPTH + 1),
        "n" + " / 1" * DEPTH: 7,
        _left_nested(DEPTH - 1, " + n"): 7 * (DEPTH + 1),
        "-" * DEPTH + "n": 7 * (-1) ** DEPTH,
        "not " * DEPTH + "n": 1 - DEPTH % 2,
        "if(n, " * DEPTH + "n" + ", 0)" * DEPTH: 7,
        "ipow(" * DEPTH + "n" + ", 1)" * DEPTH: 7,
        # side by side, parentheses, arguments and unary operators do not nest
        "+".join(["(n)"] * (DEPTH + 1)): 7 * (DEPTH + 1),
        "+".join(["if(ilog2(n), -(-n), not not n)"] * 51): 7 * 51,
    }
    for source, value in cases.items():
        # a caller 100 or 500 frames deep still leaves the parser room
        for frames in (100, 500):
            rule = _call_from_depth(frames, lambda: parse_rule(source, 1000))
            assert rule.color(7) == value % 1000, (source, frames)


def _tokens_or_error(source):
    try:
        return _tokenize(source)
    except RuleSyntaxError as err:
        return "error", str(err), err.position


def _assert_tokens_agree(sources):
    for source in sources:
        want = rule_tokens_oracle(source)
        if want[0] == "error":
            _, message, at = want
            want = "error", f"syntax error at position {at}: {message}", at
        assert _tokens_or_error(source) == want, ascii(source)


def test_tokens_match_the_oracle_on_every_code_point():
    # alone, ending a word and starting a number; the astral ones are a
    # decimal digit, a letter, a symbol and the last code point
    chars = [chr(c) for c in range(0x10000)] + ["\U0001D7D9", "\U0001D427", "\U0001F600",
                                                "\U0010FFFF"]
    _assert_tokens_agree(chars)
    _assert_tokens_agree("n" + ch for ch in chars)
    _assert_tokens_agree(ch + "1" for ch in chars)


def test_tokens_match_the_oracle_on_random_sources():
    # mostly pieces that tokenize, so that a source reaches its later characters
    tokens = ["n", "and", "or", "not", "if", "ilog2", "ipow", "==", "!=", "<=", ">=", "12",
              *"0123456789+-*/%<>(),", " ", "\t", "\n",
              # Unicode decimal digits and spaces
              *"\u0663\u06f9\u0966\U0001D7D9", *"\u00a0\u2003\u3000\x1c\x85\u2028"]
    # and some that may not: any printable ASCII, other digits and numerics,
    # letters, and characters that are not spaces
    others = [*string.printable, *"\u00b2\u00bd\u2167", *"\u00e9\u00df\u03a9\u0430\u4e2d",
              *"\U0001D427\u02b0\u200b\ufeff"]
    rng = random.Random(20261020)
    _assert_tokens_agree(
        "".join(rng.choice(others if rng.random() < 0.05 else tokens)
                for _ in range(rng.randint(0, 16)))
        for _ in range(20000))
