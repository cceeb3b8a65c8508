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
once, on its first evaluation, into a closure of numpy ufuncs that it
keeps, so one evaluation serves scalar bindings and arrays of values alike
(elementwise, with the bindings broadcast against each other). Evaluation
raises ``ExprEvalError`` on every failure (unbound variable, division by
zero, overflow, a non-real power, a function outside its domain), also
when a single element of an array fails; the message names that element.
"""

from __future__ import annotations

import math
import re
from typing import Mapping, Union

import numpy as np

from ._records import ValueRecord, set_field
from .errors import ExprEvalError, ExprSyntaxError

FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "exp": np.exp,
    "abs": np.abs,
}

CONSTANTS = {"pi": math.pi}


class Num(ValueRecord):
    _fields = ("value",)

    def __init__(self, value: float):
        set_field(self, "value", value)


class Var(ValueRecord):
    _fields = ("name",)

    def __init__(self, name: str):
        set_field(self, "name", name)


class Neg(ValueRecord):
    _fields = ("operand",)

    def __init__(self, operand: "Expr"):
        set_field(self, "operand", operand)


class BinOp(ValueRecord):
    """``left op right``, with ``op`` one of ``+ - * / ^``."""

    _fields = ("op", "left", "right")

    def __init__(self, op: str, left: "Expr", right: "Expr"):
        set_field(self, "op", op)
        set_field(self, "left", left)
        set_field(self, "right", right)


class Call(ValueRecord):
    _fields = ("func", "arg")

    def __init__(self, func: str, arg: "Expr"):
        set_field(self, "func", func)
        set_field(self, "arg", arg)


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


def evaluate(expr: Expr, env: Mapping[str, float | np.ndarray] | None = None) -> float | np.ndarray:
    """Evaluate an expression tree with the given variable bindings: a float
    for scalar bindings, else an array of the bindings' broadcast shape.
    The first evaluation compiles the tree into a closure that the tree
    keeps."""
    fn = expr.__dict__.get("_compiled")
    if fn is None:
        fn = _compile(expr)
        object.__setattr__(expr, "_compiled", fn)
    env = env or {}
    # underflow to zero is not a failure; the rest raise inside ``_checked``
    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        value = fn(env)
    shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
    if not shape:
        return float(value)
    return value if np.shape(value) == shape else np.broadcast_to(value, shape)


def _compile(expr: Expr):
    """Closure ``env -> value`` for a tree."""
    if isinstance(expr, Num):
        return lambda env, value=expr.value: value
    if isinstance(expr, Var):
        return lambda env, name=expr.name: _variable(name, env)
    if isinstance(expr, Neg):
        operand = _compile(expr.operand)
        return lambda env: _NEGATE(operand(env))
    if isinstance(expr, Call):
        arg, func = _compile(expr.arg), _CHECKED_FUNCTIONS[expr.func]
        return lambda env: func(arg(env))
    if isinstance(expr, BinOp):
        left, right, op = _compile(expr.left), _compile(expr.right), _OPERATORS[expr.op]
        return lambda env: op(left(env), right(env))
    raise TypeError(f"not an expression node: {expr!r}")


def _variable(name: str, env: Mapping[str, float | np.ndarray]):
    if name in env:
        value = env[name]
        return value if isinstance(value, np.ndarray) else float(value)
    if name in CONSTANTS:
        return CONSTANTS[name]
    raise ExprEvalError(f"unbound variable {name!r}")


def _checked(fn):
    """Ufunc ``fn`` raising ``ExprEvalError`` where it fails (division by
    zero, overflow, a non-real or undefined value) under the error state
    set by :func:`evaluate`; the message names the first failing element."""
    def checked(*args):
        try:
            return fn(*args)
        except ArithmeticError as exc:
            reason = exc
        with np.errstate(all="ignore"):
            cells = np.broadcast_arrays(*args)
            bad = np.flatnonzero(~np.isfinite(fn(*args)))
        i = bad[0] if len(bad) else 0
        values = ", ".join(repr(float(c.flat[i])) for c in cells)
        raise ExprEvalError(f"{fn.__name__}({values}) failed: {reason}")
    return checked


_CHECKED_FUNCTIONS = {name: _checked(fn) for name, fn in FUNCTIONS.items()}
_OPERATORS = {"+": _checked(np.add), "-": _checked(np.subtract), "*": _checked(np.multiply),
              "/": _checked(np.divide), "^": _checked(np.power)}
_NEGATE = _checked(np.negative)


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
