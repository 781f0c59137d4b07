"""A small expression DSL for coloring rules over the naturals.

Grammar (precedence from loosest to tightest):

    expr    := and ("or" and)*
    and     := unary ("and" unary)*
    unary   := "not" unary | cmp
    cmp     := add (("=="|"!="|"<="|">="|"<"|">") add)?
    add     := mul (("+"|"-") mul)*
    mul     := factor (("*"|"/"|"%") factor)*
    factor  := "-" factor | atom
    atom    := INT | "n" | "(" expr ")"
             | "ilog2" "(" expr ")" | "ipow" "(" expr "," expr ")"
             | "if" "(" expr "," expr "," expr ")"

Everything is an integer.  Comparisons and boolean operators yield 0/1 and
treat any non-zero value as true; "/" and "%" truncate toward zero; ilog2(x)
is floor(log2 x) for x >= 1; if(c, x, y) evaluates lazily.  A rule's color
is the expression value reduced into [0, k) by mathematical modulus.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError, RuleEvaluationError, RuleSyntaxError

_KEYWORDS = {"n", "and", "or", "not", "if", "ilog2", "ipow"}
_CMP_OPS = {"==": operator.eq, "!=": operator.ne, "<=": operator.le,
            ">=": operator.ge, "<": operator.lt, ">": operator.gt}

# Guards against runaway ipow blowup; violations surface per-input.
_IPOW_EXP_LIMIT = 1 << 20
_IPOW_RESULT_BITS = 1 << 21


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(source):
        ch = source[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < len(source) and source[j].isdigit():
                j += 1
            tokens.append(("int", source[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(source) and (source[j].isalnum() or source[j] == "_"):
                j += 1
            word = source[i:j]
            if word not in _KEYWORDS:
                raise RuleSyntaxError(f"unknown identifier {word!r}", i)
            tokens.append(("word", word, i))
            i = j
            continue
        two = source[i : i + 2]
        if two in _CMP_OPS:
            tokens.append(("op", two, i))
            i += 2
            continue
        if ch in "+-*/%<>(),":
            tokens.append(("op", ch, i))
            i += 1
            continue
        if ch in "=!":
            raise RuleSyntaxError(f"incomplete operator {ch!r}", i)
        raise RuleSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str):
        kind, val, at = self.peek()
        if val != text or kind == "eof":
            raise RuleSyntaxError(f"expected {text!r}", at)
        return self.take()

    def parse(self):
        node = self.expr()
        kind, val, at = self.peek()
        if kind != "eof":
            raise RuleSyntaxError(f"unexpected token {val!r}", at)
        return node

    def expr(self):
        node = self.and_expr()
        while self.peek()[1] == "or":
            self.take()
            node = ("or", node, self.and_expr())
        return node

    def and_expr(self):
        node = self.unary()
        while self.peek()[1] == "and":
            self.take()
            node = ("and", node, self.unary())
        return node

    def unary(self):
        if self.peek()[1] == "not":
            self.take()
            return ("not", self.unary())
        return self.cmp()

    def cmp(self):
        node = self.add()
        kind, val, _ = self.peek()
        if kind == "op" and val in _CMP_OPS:
            self.take()
            return ("cmp", val, node, self.add())
        return node

    def add(self):
        node = self.mul()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            node = ("bin", op, node, self.mul())
        return node

    def mul(self):
        node = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/%":
            op = self.take()[1]
            node = ("bin", op, node, self.factor())
        return node

    def factor(self):
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return ("neg", self.factor())
        return self.atom()

    def atom(self):
        kind, val, at = self.take()
        if kind == "int":
            return ("int", int(val))
        if val == "n":
            return ("var",)
        if val == "(":
            node = self.expr()
            self.expect(")")
            return node
        if val == "ilog2":
            self.expect("(")
            arg = self.expr()
            self.expect(")")
            return ("ilog2", arg)
        if val == "ipow":
            self.expect("(")
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            return ("ipow", a, b)
        if val == "if":
            self.expect("(")
            c = self.expr()
            self.expect(",")
            t = self.expr()
            self.expect(",")
            f = self.expr()
            self.expect(")")
            return ("if", c, t, f)
        raise RuleSyntaxError("expected an operand", at)


def _trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise RuleEvaluationError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _trunc_mod(a: int, b: int) -> int:
    if b == 0:
        raise RuleEvaluationError("division by zero")
    r = abs(a) % abs(b)  # the truncated remainder takes the sign of a
    return r if a >= 0 else -r


def _ilog2(x: int) -> int:
    if x < 1:
        raise RuleEvaluationError(f"ilog2 of non-positive value {x}")
    return x.bit_length() - 1


def _ipow(a: int, b: int) -> int:
    if b < 0:
        raise RuleEvaluationError(f"ipow with negative exponent {b}")
    if b > _IPOW_EXP_LIMIT or abs(a).bit_length() * max(b, 1) > _IPOW_RESULT_BITS:
        raise RuleEvaluationError(f"ipow({a}, {b}) result too large")
    return a ** b


_BIN_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "/": _trunc_div, "%": _trunc_mod}


def _compile(node: tuple) -> Callable[[int], int]:
    """The function n -> value of an AST node, as nested closures.

    Built once per rule, so evaluating it does no per-node dispatch.  `and`,
    `or` and `if` call their later operands only when they need them.  A
    constant right operand is bound into its parent's closure, which spares
    a call per evaluation in rules such as `n % 2`.
    """
    op = node[0]
    if op == "int":
        value = node[1]
        return lambda n: value
    if op == "var":
        return lambda n: n
    if op == "neg":
        x = _compile(node[1])
        return lambda n: -x(n)
    if op == "not":
        x = _compile(node[1])
        return lambda n: 0 if x(n) else 1
    if op == "ilog2":
        x = _compile(node[1])
        return lambda n: _ilog2(x(n))
    if op == "if":
        c, t, f = map(_compile, node[1:])
        return lambda n: t(n) if c(n) else f(n)
    if op in ("and", "or"):
        x, y = _compile(node[1]), _compile(node[2])
        if op == "and":
            return lambda n: 1 if x(n) and y(n) else 0
        return lambda n: 1 if x(n) or y(n) else 0
    if op == "ipow":
        fn, left, right = _ipow, node[1], node[2]
    else:  # "cmp" or "bin"
        fn = _CMP_OPS[node[1]] if op == "cmp" else _BIN_OPS[node[1]]
        left, right = node[2], node[3]
    x = _compile(left)
    if right[0] == "int":
        c = right[1]
        if op == "cmp":
            return lambda n: 1 if fn(x(n), c) else 0
        # by a positive constant, truncation is floor division on |v|
        if fn is _trunc_mod and c > 0:
            return lambda n: v % c if (v := x(n)) >= 0 else -(-v % c)
        if fn is _trunc_div and c > 0:
            return lambda n: v // c if (v := x(n)) >= 0 else -(-v // c)
        return lambda n: fn(x(n), c)
    y = _compile(right)
    if op == "cmp":
        return lambda n: 1 if fn(x(n), y(n)) else 0
    return lambda n: fn(x(n), y(n))


@dataclass(frozen=True)
class ColorRule:
    """A parsed rule mapping each natural to a cell in [0, k)."""

    source: str
    k: int
    evaluate: Callable[[int], int] = field(repr=False, compare=False)

    def color(self, n: int) -> int:
        try:
            return self.evaluate(n) % self.k
        except RuleEvaluationError as exc:
            raise RuleEvaluationError(str(exc), n=n) from None


def parse_rule(source: str, k: int) -> ColorRule:
    """Parse a rule; raises RuleSyntaxError with a 0-based error offset."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"cell count must be an integer >= 1, got {k!r}")
    return ColorRule(source=source, k=k, evaluate=_compile(_Parser(source).parse()))
