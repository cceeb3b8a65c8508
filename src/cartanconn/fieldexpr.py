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

Parsing reports syntax errors with byte offsets. Each parser production
returns its closure of numpy ufuncs, with no tree in between, and one
evaluation serves scalar bindings and arrays of values alike (elementwise,
with the bindings broadcast against each other). Evaluation raises
``ExprEvalError`` on every failure (unbound variable, division by zero,
overflow, a non-real power, a function outside its domain), also when a
single element of an array fails; the message names that element.
"""

from __future__ import annotations

import math
import re
from typing import Callable, Mapping

import numpy as np

from ._records import FrozenRecord, set_field
from .errors import ExprEvalError, ExprSyntaxError

FUNCTIONS = {"sin": np.sin, "cos": np.cos, "sqrt": np.sqrt, "exp": np.exp, "abs": np.abs}
CONSTANTS = {"pi": math.pi}


class Expression(FrozenRecord):
    """A parsed expression: ``evaluator(env) -> value`` and the names of the
    variables it reads (constants excluded)."""

    _fields = ("evaluator", "variables")

    def __init__(self, evaluator: Callable, variables: frozenset[str]):
        set_field(self, "evaluator", evaluator)
        set_field(self, "variables", variables)


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


def _variable(name: str, env: Mapping[str, float | np.ndarray]):
    if name in env:
        value = env[name]
        return value if isinstance(value, np.ndarray) else float(value)
    if name in CONSTANTS:
        return CONSTANTS[name]
    raise ExprEvalError(f"unbound variable {name!r}")


def _binary(op: str, left, right):
    fn = _OPERATORS[op]
    return lambda env: fn(left(env), right(env))


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
    """Recursive descent; each production returns the evaluator of what it
    read, and every variable name read is collected in ``names``."""

    def __init__(self, src: str):
        self.tokens = _tokenize(src)
        self.index = 0
        self.names: set[str] = set()

    @property
    def current(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.current
        self.index += 1
        return token

    def accept(self, symbols: str) -> str | None:
        """The current token if it is one of the operators ``symbols``,
        consumed; else ``None``, consuming nothing."""
        kind, text, _ = self.current
        if kind == "op" and text in symbols:
            self.index += 1
            return text
        return None

    def expect_op(self, symbol: str):
        if not self.accept(symbol):
            raise ExprSyntaxError(f"expected {symbol!r}", self.current[2])

    def parse(self) -> Expression:
        fn = self.expr()
        kind, text, offset = self.current
        if kind != "end":
            raise ExprSyntaxError(f"unexpected trailing input {text!r}", offset)
        return Expression(fn, frozenset(self.names - CONSTANTS.keys()))

    def expr(self):
        fn = self.term()
        while op := self.accept("+-"):
            fn = _binary(op, fn, self.term())
        return fn

    def term(self):
        fn = self.factor()
        while op := self.accept("*/"):
            fn = _binary(op, fn, self.factor())
        return fn

    def factor(self):
        if self.accept("-"):
            operand = self.factor()
            return lambda env: _NEGATE(operand(env))
        return self.power()

    def power(self):
        fn = self.atom()
        if self.accept("^"):
            # right associativity: the exponent may itself be a power, and
            # may carry a unary minus
            return _binary("^", fn, self.factor())
        return fn

    def atom(self):
        kind, text, offset = self.advance()
        if kind == "num":
            value = float(text)
            return lambda env: value
        if kind == "name":
            if self.accept("("):
                if text not in FUNCTIONS:
                    raise ExprSyntaxError(f"unknown function {text!r}", offset)
                arg, func = self.expr(), _CHECKED_FUNCTIONS[text]
                self.expect_op(")")
                return lambda env: func(arg(env))
            self.names.add(text)
            return lambda env: _variable(text, env)
        if kind == "op" and text == "(":
            fn = self.expr()
            self.expect_op(")")
            return fn
        raise ExprSyntaxError(f"expected a value, found {text!r}" if text else "unexpected end of input", offset)


def parse(src: str) -> Expression:
    """Parse an expression string into its evaluator and free variables."""
    return _Parser(src).parse()


def evaluate(expr: Expression, env: Mapping[str, float | np.ndarray] | None = None) -> float | np.ndarray:
    """Evaluate a parsed expression with the given variable bindings: a
    float for scalar bindings, else an array of the bindings' broadcast
    shape."""
    env = env or {}
    # underflow to zero is not a failure; the rest raise inside ``_checked``
    with np.errstate(divide="raise", over="raise", invalid="raise", under="ignore"):
        value = expr.evaluator(env)
    shape = np.broadcast_shapes(*(np.shape(v) for v in env.values()))
    if not shape:
        return float(value)
    return value if np.shape(value) == shape else np.broadcast_to(value, shape)
