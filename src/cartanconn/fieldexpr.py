"""Small arithmetic expression language for field inputs.

Scenario files specify gravity fields and field components as strings like
``"9.81 + 0.3*x"`` or ``"-mu / (x^2 + y^2)^1.5 * x"``. The grammar is a
conventional recursive-descent one:

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' factor)?
    atom    := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Precedence is ``^`` above unary minus above ``* /`` above ``+ -``;
``^`` associates to the right (``2^3^2 = 512``), the other binary
operators to the left. Known functions are sin, cos, sqrt, exp and abs;
``pi`` is predefined. Any other name is a free variable to be supplied at
evaluation time (conventionally t, x, y, z plus named constants).

Parsing reports syntax errors with byte offsets. Each tree is compiled
once, on its first evaluation, into a closure that it keeps; evaluation
raises ``ExprEvalError`` on every failure (unbound variable, division by
zero, overflow, a non-real power, a function outside its domain).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import ExprEvalError, ExprSyntaxError

FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "sqrt": math.sqrt,
    "exp": math.exp,
    "abs": abs,
}

CONSTANTS = {"pi": math.pi}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Expr"


Expr = Union[Num, Var, Neg, BinOp, Call]

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[()+\-*/^]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    while pos < len(src):
        match = _TOKEN.match(src, pos)
        if match is None:
            stripped = src[pos:].lstrip()
            if not stripped:
                break
            offset = len(src) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {stripped[0]!r}", offset)
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    tokens.append(("end", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.index = 0

    @property
    def current(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.current
        self.index += 1
        return token

    def expect_op(self, symbol: str):
        kind, text, offset = self.current
        if kind != "op" or text != symbol:
            raise ExprSyntaxError(f"expected {symbol!r}", offset)
        self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        kind, text, offset = self.current
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", offset)
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.current[0] == "op" and self.current[1] in "+-":
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.current[0] == "op" and self.current[1] in "*/":
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.current[0] == "op" and self.current[1] == "-":
            self.advance()
            return Neg(self.factor())
        return self.power()

    def power(self) -> Expr:
        node = self.atom()
        if self.current[0] == "op" and self.current[1] == "^":
            self.advance()
            # right associativity: the exponent may itself be a power, and
            # may carry a unary minus
            return BinOp("^", node, self.factor())
        return node

    def atom(self) -> Expr:
        kind, text, offset = self.current
        if kind == "num":
            self.advance()
            return Num(float(text))
        if kind == "name":
            self.advance()
            if self.current[0] == "op" and self.current[1] == "(":
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", offset)
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(text, arg)
            return Var(text)
        if kind == "op" and text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(f"expected a value, found {text!r}" if text else "unexpected end of input", offset)


def parse(src: str) -> Expr:
    """Parse an expression string into a tree."""
    return _Parser(src).parse()


def evaluate(expr: Expr, env: Mapping[str, float] | None = None) -> float:
    """Evaluate an expression tree with the given variable bindings; the
    first evaluation compiles the tree into a closure that the tree keeps."""
    fn = expr.__dict__.get("_compiled")
    if fn is None:
        fn = _compile(expr)
        object.__setattr__(expr, "_compiled", fn)
    return fn(env or {})


def _compile(expr: Expr):
    """Closure ``env -> value`` for a tree."""
    if isinstance(expr, Num):
        return lambda env, value=expr.value: value
    if isinstance(expr, Var):
        return lambda env, name=expr.name: _variable(name, env)
    if isinstance(expr, Neg):
        operand = _compile(expr.operand)
        return lambda env: -operand(env)
    if isinstance(expr, Call):
        arg, func = _compile(expr.arg), _CHECKED_FUNCTIONS[expr.func]
        return lambda env: func(arg(env))
    if isinstance(expr, BinOp):
        left, right, op = _compile(expr.left), _compile(expr.right), _OPERATORS[expr.op]
        return lambda env: op(left(env), right(env))
    raise TypeError(f"not an expression node: {expr!r}")


def _variable(name: str, env: Mapping[str, float]) -> float:
    if name in env:
        return float(env[name])
    if name in CONSTANTS:
        return CONSTANTS[name]
    raise ExprEvalError(f"unbound variable {name!r}")


def _checked(fn):
    """``fn`` raising ``ExprEvalError`` where it fails (division by zero,
    overflow, a math domain error) or returns a complex number."""
    def checked(*args):
        try:
            value = fn(*args)
            if not isinstance(value, complex):
                return value
            reason = "is not real"
        except (ArithmeticError, ValueError) as exc:
            reason = f"failed: {exc}"
        raise ExprEvalError(f"{fn.__name__}({', '.join(map(repr, args))}) {reason}")
    return checked


_CHECKED_FUNCTIONS = {name: _checked(fn) for name, fn in FUNCTIONS.items()}
_OPERATORS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
              "/": _checked(operator.truediv), "^": _checked(operator.pow)}


def free_variables(expr: Expr) -> set[str]:
    """Names of the variables the expression reads (constants excluded)."""
    if isinstance(expr, Num):
        return set()
    if isinstance(expr, Var):
        return set() if expr.name in CONSTANTS else {expr.name}
    if isinstance(expr, Neg):
        return free_variables(expr.operand)
    if isinstance(expr, Call):
        return free_variables(expr.arg)
    return free_variables(expr.left) | free_variables(expr.right)


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(expr: Expr) -> str:
    """Render a tree back to source with minimal parentheses; rendering a
    parsed tree and reparsing reproduces the tree."""

    def render(node: Expr, min_level: int) -> str:
        if isinstance(node, Num):
            text = repr(node.value)
            return text[:-2] if text.endswith(".0") else text
        if isinstance(node, Var):
            return node.name
        if isinstance(node, Call):
            return f"{node.func}({render(node.arg, 0)})"
        if isinstance(node, Neg):
            level = _PRECEDENCE["neg"]
            text = f"-{render(node.operand, level)}"
            return f"({text})" if level < min_level else text
        level = _PRECEDENCE[node.op]
        if node.op == "^":
            text = f"{render(node.left, level + 1)} {node.op} {render(node.right, level)}"
        else:
            text = f"{render(node.left, level)} {node.op} {render(node.right, level + 1)}"
        return f"({text})" if level < min_level else text

    return render(expr, 0)
