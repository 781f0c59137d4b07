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

A rule compiles once, through Python's `ast` module, into one function of
n; no source text is generated or `eval`ed.  Parentheses, function
arguments and unary operators may nest, and the parsed tree may grow (also
through chains of binary operators), at most _MAX_RULE_DEPTH levels deep;
a deeper rule is a RuleSyntaxError at the token that passes the limit.
"""

from __future__ import annotations

import ast
import itertools
from dataclasses import dataclass, field
from typing import Callable

from .errors import DomainError, RuleEvaluationError, RuleSyntaxError

_KEYWORDS = {"n", "and", "or", "not", "if", "ilog2", "ipow"}
_CMP_OPS = {"==": ast.Eq, "!=": ast.NotEq, "<=": ast.LtE, ">=": ast.GtE,
            "<": ast.Lt, ">": ast.Gt}
_ARITY = {"ilog2": 1, "ipow": 2, "if": 3}

# Guards against runaway ipow blowup; violations surface per-input.
_IPOW_EXP_LIMIT = 1 << 20
_IPOW_RESULT_BITS = 1 << 21
# The nesting and tree height a rule may reach.  The parser takes up to 8
# Python frames per nesting level, so a rule at the limit leaves callers
# about 190 frames of the default recursion limit (1000).
_MAX_RULE_DEPTH = 100


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
    """Recursive descent; each method returns (node, height of the node's tree).

    A leaf has height 0.  `nesting` counts the parentheses, function
    arguments and unary operators open around the current token.  Both stay
    within _MAX_RULE_DEPTH, which bounds the recursion of this parser, of
    `_compile` and of Python's compiler.
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
        kind, val, at = self.peek()
        if val != text or kind == "eof":
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

    def parse(self):
        node, _ = self.expr()
        kind, val, at = self.peek()
        if kind != "eof":
            raise RuleSyntaxError(f"unexpected token {val!r}", at)
        return node

    def expr(self):
        node, h = self.and_expr()
        while self.peek()[1] == "or":
            at = self.take()[2]
            rhs, rh = self.and_expr()
            node, h = ("bool", "or", node, rhs), self.above(at, h, rh)
        return node, h

    def and_expr(self):
        node, h = self.unary()
        while self.peek()[1] == "and":
            at = self.take()[2]
            rhs, rh = self.unary()
            node, h = ("bool", "and", node, rhs), self.above(at, h, rh)
        return node, h

    def unary(self):
        _, val, at = self.peek()
        if val == "not":
            self.take()
            self.enter(at)
            x, h = self.unary()
            self.nesting -= 1
            return ("not", x), self.above(at, h)
        return self.cmp()

    def cmp(self):
        node, h = self.add()
        kind, val, at = self.peek()
        if kind == "op" and val in _CMP_OPS:
            self.take()
            rhs, rh = self.add()
            return ("cmp", val, node, rhs), self.above(at, h, rh)
        return node, h

    def add(self):
        node, h = self.mul()
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            _, op, at = self.take()
            rhs, rh = self.mul()
            node, h = ("bin", op, node, rhs), self.above(at, h, rh)
        return node, h

    def mul(self):
        node, h = self.factor()
        while self.peek()[0] == "op" and self.peek()[1] in "*/%":
            _, op, at = self.take()
            rhs, rh = self.factor()
            node, h = ("bin", op, node, rhs), self.above(at, h, rh)
        return node, h

    def factor(self):
        kind, val, at = self.peek()
        if kind == "op" and val == "-":
            self.take()
            self.enter(at)
            x, h = self.factor()
            self.nesting -= 1
            return ("neg", x), self.above(at, h)
        return self.atom()

    def atom(self):
        kind, val, at = self.take()
        if kind == "int":
            return ("int", int(val)), 0
        if val == "n":
            return ("var",), 0
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
            return (val, *args), self.above(at, *heights)
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


_ARITH_OPS = {"+": ast.Add, "-": ast.Sub, "*": ast.Mult}
_FLOOR_OPS = {"/": ast.FloorDiv, "%": ast.Mod}
_HELPERS = {"/": _trunc_div, "%": _trunc_mod, "ilog2": _ilog2, "ipow": _ipow}
# a compiled rule's globals: the helpers by their own names, and no builtins
_GLOBALS = {"__builtins__": {}, **{f.__name__: f for f in _HELPERS.values()}}


def _compile(parsed: tuple) -> Callable[[int], int]:
    """The function n -> value of a parsed rule, as one compiled `lambda n: ...`.

    The lambda is assembled from `ast` nodes and passed to `compile()`; no
    source text is generated, `eval` only runs the compiled code to make the
    function, and the tree holds only constants, `n`, walrus temporaries and
    helper names.  Evaluating it makes no Python call per rule node.
    Comparisons, `not`, `and` and `or` yield 0/1, and `and`, `or` and `if`
    evaluate lazily.  `/` and `%` by a positive constant are floor division
    on |v|; every other `/` and `%`, and `ilog2` and `ipow`, call the
    helpers above, which raise the evaluation errors.  The parser keeps the
    tree within _MAX_RULE_DEPTH levels, so neither this recursion nor
    Python's compiler runs out of stack.
    """
    temps = itertools.count()

    def node(cls, *fields) -> ast.AST:
        """An `ast` node of type cls, placed at the start of line 1."""
        return cls(*fields, lineno=1, col_offset=0)

    def const(c: int) -> ast.expr:
        return node(ast.Constant, c)

    def name(ident: str, ctx=ast.Load) -> ast.expr:
        return node(ast.Name, ident, ctx())

    def call(op: str, *args: tuple) -> ast.expr:
        return node(ast.Call, name(_HELPERS[op].__name__), [value(a) for a in args], [])

    def truth(tree: tuple) -> ast.expr:
        """An expression that is true exactly when the tree's value is non-zero."""
        op = tree[0]
        if op == "cmp":
            return node(ast.Compare, value(tree[2]), [_CMP_OPS[tree[1]]()], [value(tree[3])])
        if op == "not":
            return node(ast.UnaryOp, ast.Not(), truth(tree[1]))
        if op == "bool":
            bool_op = ast.And() if tree[1] == "and" else ast.Or()
            return node(ast.BoolOp, bool_op, [truth(tree[2]), truth(tree[3])])
        return value(tree)

    def value(tree: tuple) -> ast.expr:
        op = tree[0]
        if op in ("cmp", "not", "bool"):
            return node(ast.IfExp, truth(tree), const(1), const(0))
        if op == "int":
            return const(tree[1])
        if op == "var":
            return name("n")
        if op == "neg":
            return node(ast.UnaryOp, ast.USub(), value(tree[1]))
        if op == "if":
            return node(ast.IfExp, truth(tree[1]), value(tree[2]), value(tree[3]))
        if op != "bin":  # ilog2, ipow
            return call(op, *tree[1:])
        _, sym, left, right = tree
        if sym in _ARITH_OPS:
            return node(ast.BinOp, value(left), _ARITH_OPS[sym](), value(right))
        if right[0] != "int" or right[1] <= 0:
            return call(sym, left, right)
        # by a positive constant c, truncation is floor division on |v|:
        # v // c if (v := left) >= 0 else -(-v // c), where n needs no temporary
        if left[0] == "var":
            v, first = "n", name("n")
        else:
            v = f"_t{next(temps)}"
            first = node(ast.NamedExpr, name(v, ast.Store), value(left))
        c, floor = right[1], _FLOOR_OPS[sym]
        negated = node(ast.UnaryOp, ast.USub(), name(v))
        return node(
            ast.IfExp,
            node(ast.Compare, first, [ast.GtE()], [const(0)]),
            node(ast.BinOp, name(v), floor(), const(c)),
            node(ast.UnaryOp, ast.USub(), node(ast.BinOp, negated, floor(), const(c))),
        )

    args = ast.arguments(posonlyargs=[], args=[node(ast.arg, "n")], kwonlyargs=[],
                         kw_defaults=[], defaults=[])
    lam = ast.Expression(node(ast.Lambda, args, value(parsed)))
    return eval(compile(lam, "<rule>", "eval"), _GLOBALS)


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
