"""A small expression DSL for coloring rules over the naturals.

Grammar:

    expr  := "not" expr | "-" expr | expr OP expr | atom
    atom  := INT | "n" | "(" expr ")"
           | "ilog2" "(" expr ")" | "ipow" "(" expr "," expr ")"
           | "if" "(" expr "," expr "," expr ")"

with precedence from loosest to tightest: "or", "and", "not", the
comparisons "==" "!=" "<=" ">=" "<" ">", then "+" "-", then "*" "/" "%",
then unary "-".  Binary operators associate to the left, except that
comparisons do not chain: "n < n < n" and "not 1 <= 1 < 2" are syntax
errors.  "not" only stands where an "and" operand may: "n < not n" and
"- not n" are syntax errors too.

Everything is an integer.  Comparisons and boolean operators yield 0/1 and
treat any non-zero value as true; "/" and "%" truncate toward zero; ilog2(x)
is floor(log2 x) for x >= 1; if(c, x, y) evaluates lazily.  A rule's color
is the expression value reduced into [0, k) by mathematical modulus.

The parser builds Python `ast` nodes as it reads the rule, and parsing
compiles nothing.  `ColorRule.evaluate`, one function of n, and
`ColorRule.colors`, which colours many n in one call as one list
comprehension, are each compiled from that tree on their first use, so a
rule compiles only what its caller asks for.  No source text is generated
or `eval`ed.  `/` and `%` by a positive constant compile to inline floor
division, which cannot fail.  `ilog2(x)`, and `ipow(a, c)` for a constant c
in [0, _IPOW_EXP_LIMIT], compile inline behind the guard that their helper
tests (x >= 1; a's bit length times max(c, 1) within _IPOW_RESULT_BITS), so
a helper runs only to raise.  Every other `/`, `%` and `ipow` calls its
helper.  Every evaluation error, in a batch too, is a RuleEvaluationError
raised where it happens, naming the n being evaluated.
Parentheses, function arguments and unary operators may nest, and the
rule's tree may grow (also through chains of binary operators), at most
_MAX_RULE_DEPTH levels deep; a deeper rule is a RuleSyntaxError at the
token that passes the limit.

Lexically, an INT is a run of Unicode decimal digits, a word is a letter or
"_" followed by letters, digits or "_", any Unicode space separates tokens,
and a lone "=" or "!" is an "incomplete operator".  An INT longer than int()
converts (sys.get_int_max_str_digits(), 4300 by default since Python 3.11
and 3.10.7) is a RuleSyntaxError at its first digit.
"""

from __future__ import annotations

import ast
import re
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable

from .errors import DomainError, RuleEvaluationError, RuleSyntaxError, message_int

_KEYWORDS = {"n", "and", "or", "not", "if", "ilog2", "ipow"}
# An int, a word, an operator, or any other character; whitespace matches none.
_TOKEN = re.compile(r"(\d+)|(\w+)|(==|!=|<=|>=|[-+*/%<>(),])|(\S)")
_CMP_OPS = {"==": ast.Eq, "!=": ast.NotEq, "<=": ast.LtE, ">=": ast.GtE,
            "<": ast.Lt, ">": ast.Gt}
_ARITY = {"ilog2": 1, "ipow": 2, "if": 3}
# Binding strengths: of the binary operators, and of the prefix operators,
# whose operand takes every binary operator at least as strong.
_PREC = {"or": 1, "and": 2, **dict.fromkeys(_CMP_OPS, 4),
         "+": 5, "-": 5, "*": 6, "/": 6, "%": 6}
_PREFIX = {"not": 3, "-": 7}

# Guards against runaway ipow blowup; violations surface per-input.
_IPOW_EXP_LIMIT = 1 << 20
_IPOW_RESULT_BITS = 1 << 21
# The nesting and tree height a rule may reach.  The parser takes 2 Python
# frames per nesting level, and compiling a rule at the limit charges up to
# about 410 frames (a nest of ipow by a constant), so callers keep about 590
# of the default recursion limit (1000).
_MAX_RULE_DEPTH = 100


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    for m in _TOKEN.finditer(source):
        group, text, at = m.lastindex, m.group(), m.start()
        if group == 1 or group == 3:
            tokens.append(("int" if group == 1 else "op", text, at))
        elif group == 2 and (text[0].isalpha() or text[0] == "_"):
            if text not in _KEYWORDS:
                raise RuleSyntaxError(f"unknown identifier {text!r}", at)
            tokens.append(("word", text, at))
        elif text[0] in "=!":
            raise RuleSyntaxError(f"incomplete operator {text[0]!r}", at)
        else:
            raise RuleSyntaxError(f"unexpected character {text[0]!r}", at)
    tokens.append(("eof", "", len(source)))
    return tokens


class _Parser:
    """Precedence climbing; `expr` returns (node, height of the rule's tree).

    A leaf has height 0.  `nesting` counts the parentheses, function
    arguments and unary operators open around the current token.  Both stay
    within _MAX_RULE_DEPTH, which bounds the recursion of this parser and of
    Python's compiler.
    """

    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0
        self.nesting = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str):
        _, val, at = self.peek()
        if val != text:
            raise RuleSyntaxError(f"expected {text!r}", at)
        return self.take()

    def enter(self, at: int) -> None:
        """Open one nesting level at the token at offset `at`."""
        self.nesting += 1
        if self.nesting > _MAX_RULE_DEPTH:
            raise RuleSyntaxError(f"rule nests deeper than {_MAX_RULE_DEPTH} levels", at)

    @staticmethod
    def above(at: int, *heights: int) -> int:
        """Height of a node, made at offset `at`, over subtrees of these heights."""
        h = max(heights) + 1
        if h > _MAX_RULE_DEPTH:
            raise RuleSyntaxError(f"rule nests deeper than {_MAX_RULE_DEPTH} levels", at)
        return h

    def parse(self) -> ast.expr:
        node, _ = self.expr()
        kind, val, at = self.peek()
        if kind != "eof":
            raise RuleSyntaxError(f"unexpected token {val!r}", at)
        return node

    def expr(self, min_prec: int = 1) -> tuple[ast.expr, int]:
        """The expression at the cursor whose binary operators bind at least min_prec.

        `prec` caps the strength of the next operator the loop may take.  The
        right operand of an operator of strength p took every stronger one, so
        the cap falls to p, and below p after a comparison, so comparisons
        never chain.  After a prefix operator the cap is its own strength: a
        `not` is followed only by `and` and `or`.
        """
        kind, val, at = self.take()
        prec = _PREFIX.get(val, 0)
        if prec < min_prec:  # an atom; a `not` here is refused as one
            node, h = self.atom(kind, val, at)
            prec = _PREFIX["-"]  # any binary operator may follow
        else:
            self.enter(at)
            operand, h = self.expr(prec)
            self.nesting -= 1
            node = (_node(ast.UnaryOp, ast.Not(), operand) if val == "not"
                    else _node(ast.UnaryOp, ast.USub(), _value(operand)))
            h = self.above(at, h)
        while min_prec <= _PREC.get(self.peek()[1], 0) <= prec:
            _, op, at = self.take()
            rhs, rh = self.expr(_PREC[op] + 1)
            node, h = _binary(op, node, rhs), self.above(at, h, rh)
            prec = _PREC[op] - (op in _CMP_OPS)
        return node, h

    def atom(self, kind: str, val: str, at: int) -> tuple[ast.expr, int]:
        if kind == "int":
            try:
                return _const(int(val)), 0
            except ValueError:  # more digits than int() converts
                raise RuleSyntaxError(f"integer literal longer than "
                                      f"{sys.get_int_max_str_digits()} digits", at) from None
        if val == "n":
            return _name("n"), 0
        if val == "(":
            self.enter(at)
            node = self.expr()
            self.expect(")")
            self.nesting -= 1
            return node
        if val in _ARITY:  # ilog2(x), ipow(a, b), if(c, x, y)
            self.expect("(")
            self.enter(at)
            args, heights = [], []
            for i in range(_ARITY[val]):
                if i:
                    self.expect(",")
                arg, h = self.expr()
                args.append(arg)
                heights.append(h)
            self.expect(")")
            self.nesting -= 1
            h = self.above(at, *heights)
            if val == "if":
                return _node(ast.IfExp, args[0], _value(args[1]), _value(args[2])), h
            return _call(val, *args), h
        raise RuleSyntaxError("expected an operand", at)


def _trunc_div(a: int, b: int, n: int) -> int:
    if b == 0:
        raise RuleEvaluationError("division by zero", n)
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def _trunc_mod(a: int, b: int, n: int) -> int:
    if b == 0:
        raise RuleEvaluationError("division by zero", n)
    r = abs(a) % abs(b)  # the truncated remainder takes the sign of a
    return r if a >= 0 else -r


def _ilog2(x: int, n: int) -> int:
    if x < 1:
        raise RuleEvaluationError(f"ilog2 of non-positive value {message_int(x)}", n)
    return x.bit_length() - 1


def _ipow(a: int, b: int, n: int) -> int:
    if b < 0:
        raise RuleEvaluationError(f"ipow with negative exponent {message_int(b)}", n)
    if b > _IPOW_EXP_LIMIT or abs(a).bit_length() * max(b, 1) > _IPOW_RESULT_BITS:
        raise RuleEvaluationError(
            f"ipow({message_int(a)}, {message_int(b)}) result too large", n)
    return a ** b


_BOOL_OPS = {"or": ast.Or, "and": ast.And}
_ARITH_OPS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult}
_FLOOR_OPS = {"/": ast.FloorDiv, "%": ast.Mod}
_HELPERS = {"/": _trunc_div, "%": _trunc_mod, "ilog2": _ilog2, "ipow": _ipow}
# a compiled rule's globals: the helpers by their own names, int.bit_length,
# and no builtins
_GLOBALS = {"__builtins__": {}, **{f.__name__: f for f in _HELPERS.values()},
            "_bit_length": int.bit_length}


def _node(cls, *fields) -> ast.AST:
    """An `ast` node of type cls, placed at the start of line 1."""
    return cls(*fields, lineno=1, col_offset=0)


def _const(c: int) -> ast.expr:
    return _node(ast.Constant, c)


def _name(ident: str, ctx=ast.Load) -> ast.expr:
    return _node(ast.Name, ident, ctx())


def _value(node: ast.expr) -> ast.expr:
    """The node as an int: a test (comparison, `not`, `and`, `or`) becomes 0 or 1."""
    if isinstance(node, (ast.Compare, ast.BoolOp)) or (
            isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)):
        return _node(ast.IfExp, node, _const(1), _const(0))
    return node


def _helper(op: str, *args: ast.expr) -> ast.expr:
    """The node of a call of op's helper; the helper also takes n, which its errors name."""
    return _node(ast.Call, _name(_HELPERS[op].__name__), [*args, _name("n")], [])


def _bind(node: ast.expr) -> tuple[str, ast.expr]:
    """The name that holds node's value once the returned node has run.

    That is n itself when the node is `n`; any other node is assigned to the
    walrus temporary `_t`.  One temporary serves every inline operator, as
    each reads it right after its own assignment.
    """
    if isinstance(node, ast.Name):
        return "n", node
    return "_t", _node(ast.NamedExpr, _name("_t", ast.Store), node)


def _call(op: str, *args: ast.expr) -> ast.expr:
    """The node of `ilog2(x)` or `ipow(a, b)`.

    Both are inline behind the guard that their helper tests, and the helper
    runs only where the guard fails, to raise its error:
    `v.bit_length() - 1 if (v := x) >= 1 else _ilog2(v, n)`, and, for a
    constant c in [0, _IPOW_EXP_LIMIT],
    `v ** c if _bit_length(v := a) <= _IPOW_RESULT_BITS // max(c, 1) else _ipow(v, c, n)`,
    the helper's size test, as int.bit_length ignores the sign.  Any other
    `ipow` calls the helper.
    """
    args = [*map(_value, args)]
    if op == "ilog2":
        v, first = _bind(args[0])
        guard = _node(ast.Compare, first, [ast.GtE()], [_const(1)])
        bit_length = _node(ast.Attribute, _name(v), "bit_length", ast.Load())
        inline = _node(ast.BinOp, _node(ast.Call, bit_length, [], []), ast.Sub(), _const(1))
    elif isinstance(c := args[1], ast.Constant) and 0 <= c.value <= _IPOW_EXP_LIMIT:
        # the walrus as an argument, not an attribute's base, keeps the tree of
        # an ipow nest one level shallower per ipow for compile()
        v, first = _bind(args[0])
        guard = _node(ast.Compare, _node(ast.Call, _name("_bit_length"), [first], []),
                      [ast.LtE()], [_const(_IPOW_RESULT_BITS // max(c.value, 1))])
        inline = _node(ast.BinOp, _name(v), ast.Pow(), c)
    else:
        return _helper(op, *args)
    return _node(ast.IfExp, guard, inline, _helper(op, _name(v), *args[1:]))


def _binary(op: str, left: ast.expr, right: ast.expr) -> ast.expr:
    """The node of `left op right`.

    `and` and `or` evaluate lazily.  `/` and `%` by a positive constant are
    inline floor division on |v|, which cannot fail; every other `/` and `%`
    calls the helpers above, which raise the evaluation errors.
    """
    if op in _BOOL_OPS:
        return _node(ast.BoolOp, _BOOL_OPS[op](), [left, right])
    left, right = _value(left), _value(right)
    if op in _CMP_OPS:
        return _node(ast.Compare, left, [_CMP_OPS[op]()], [right])
    if op in _ARITH_OPS:
        return _node(ast.BinOp, left, _ARITH_OPS[op](), right)
    if not isinstance(right, ast.Constant) or right.value <= 0:
        return _helper(op, left, right)
    # by a positive constant c, truncation is floor division on |v|:
    # v // c if (v := left) >= 0 else -(-v // c)
    v, first = _bind(left)
    floor = _FLOOR_OPS[op]
    negated = _node(ast.UnaryOp, ast.USub(), _name(v))
    return _node(
        ast.IfExp,
        _node(ast.Compare, first, [ast.GtE()], [_const(0)]),
        _node(ast.BinOp, _name(v), floor(), right),
        _node(ast.UnaryOp, ast.USub(), _node(ast.BinOp, negated, floor(), right)),
    )


def _function(param: str, body: ast.expr) -> Callable:
    """`lambda param: body`, compiled from its `ast` tree.

    No source text is generated, `eval` only runs the compiled code to make
    the function, and the tree holds only constants, `n`, `param`, a walrus
    temporary, helper names and `_bit_length`.
    """
    args = ast.arguments(posonlyargs=[], args=[_node(ast.arg, param)], kwonlyargs=[],
                         kw_defaults=[], defaults=[])
    lam = ast.Expression(_node(ast.Lambda, args, body))
    return eval(compile(lam, "<rule>", "eval"), _GLOBALS)


def _compile_colors(body: ast.expr, k: int) -> Callable[[Iterable[int]], list[int]]:
    """The function ns -> [value(n) % k for n in ns] of a parsed rule.

    One compiled list comprehension, so a batch makes no Python call per value.
    """
    elt = _node(ast.BinOp, _value(body), ast.Mod(), _const(k))
    loop = ast.comprehension(target=_name("n", ast.Store), iter=_name("ns"), ifs=[],
                             is_async=0)
    return _function("ns", _node(ast.ListComp, elt, [loop]))


@dataclass(frozen=True)
class ColorRule:
    """A parsed rule mapping each natural to a cell in [0, k).

    `body` is the rule's parsed tree; `evaluate` and `colors` are compiled
    from it on their first use.
    """

    source: str
    k: int
    body: ast.expr = field(repr=False, compare=False)

    def color(self, n: int) -> int:
        return self.evaluate(n) % self.k

    @cached_property
    def evaluate(self) -> Callable[[int], int]:
        """The function n -> value of the rule, as one compiled `lambda n: ...`.

        Evaluating it makes no Python call per rule node.
        """
        return _function("n", _value(self.body))

    @cached_property
    def colors(self) -> Callable[[Iterable[int]], list[int]]:
        """The function ns -> [self.color(n) for n in ns]."""
        return _compile_colors(self.body, self.k)


def parse_rule(source: str, k: int) -> ColorRule:
    """Parse a rule; raises RuleSyntaxError with a 0-based error offset."""
    if not isinstance(k, int) or k < 1:
        raise DomainError(f"cell count must be an integer >= 1, got {k!r}")
    return ColorRule(source, k, _Parser(source).parse())
