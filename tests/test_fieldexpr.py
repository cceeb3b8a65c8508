"""Tests for the expression language."""

import math
import random

import numpy as np
import pytest

from cartanconn import fieldexpr as fe
from cartanconn.errors import ExprEvalError, ExprSyntaxError


def test_number_literal():
    assert fe.evaluate(fe.parse("9.81")) == 9.81
    assert fe.evaluate(fe.parse("1e-3")) == 1e-3
    assert fe.evaluate(fe.parse(".5")) == 0.5


def test_linear_field():
    assert fe.evaluate(fe.parse("9.81 + 0.3*x"), {"x": 2.0}) == pytest.approx(10.41, abs=1e-12)


def test_power_right_associative():
    assert fe.evaluate(fe.parse("2^3^2")) == 512.0


def test_precedence_of_unary_minus_and_power():
    # the exponent binds tighter than the leading minus
    assert fe.evaluate(fe.parse("-2^2")) == -4.0
    assert fe.evaluate(fe.parse("(-2)^2")) == 4.0
    assert fe.evaluate(fe.parse("2^-1")) == 0.5


def test_variable_binding_and_constants():
    assert fe.evaluate(fe.parse("t"), {"t": 1.5}) == 1.5
    assert abs(fe.evaluate(fe.parse("sin(pi)"))) < 1e-15
    assert fe.evaluate(fe.parse("pi"), {"pi": 3.0}) == 3.0  # environment wins


def test_kepler_component():
    value = fe.evaluate(fe.parse("-mu/ (x^2+y^2)^1.5 * x"), {"mu": 1.0, "x": 1.0, "y": 0.0})
    assert value == -1.0


def test_functions():
    assert fe.evaluate(fe.parse("sqrt(abs(-9))")) == 3.0
    assert fe.evaluate(fe.parse("exp(0)")) == 1.0
    assert fe.evaluate(fe.parse("cos(0) + sin(0)")) == 1.0


def test_syntax_errors_carry_positions():
    with pytest.raises(ExprSyntaxError) as info:
        fe.parse("1 + ")
    assert info.value.position == 4
    with pytest.raises(ExprSyntaxError) as info:
        fe.parse("2 * @")
    assert info.value.position == 4
    with pytest.raises(ExprSyntaxError):
        fe.parse("(1 + 2")
    with pytest.raises(ExprSyntaxError):
        fe.parse("1 2")


def test_unknown_function_rejected_at_parse_time():
    with pytest.raises(ExprSyntaxError):
        fe.parse("tang(1)")


def test_unbound_variable_rejected_at_eval_time():
    expr = fe.parse("a + b")
    with pytest.raises(ExprEvalError):
        fe.evaluate(expr, {"a": 1.0})


def test_domain_errors():
    with pytest.raises(ExprEvalError):
        fe.evaluate(fe.parse("1/0"))
    with pytest.raises(ExprEvalError):
        fe.evaluate(fe.parse("sqrt(-1)"))


@pytest.mark.parametrize("src", ["0^(-1)", "(-8)^0.5", "exp(1000)", "sin(10^308*10)", "10^400"])
def test_every_evaluation_failure_is_an_expr_eval_error(src):
    with pytest.raises(ExprEvalError):
        fe.evaluate(fe.parse(src))


@pytest.mark.parametrize("src, values, bad", [
    # the cases above, each failing at one element of an array only
    ("x^(-1)", [2.0, 0.0, 1.0], "power(0.0, -1.0)"),
    ("x^0.5", [4.0, 9.0, -8.0], "power(-8.0, 0.5)"),
    ("exp(x)", [0.0, 1000.0, 1.0], "exp(1000.0)"),
    ("sin(10^x*10)", [1.0, 2.0, 308.0], "multiply(1e+308, 10.0)"),
    ("10^x", [400.0, 1.0, 2.0], "power(10.0, 400.0)"),
    ("1/(x - 0.5)", [0.0, 0.5, 1.0], "divide(1.0, 0.0)"),
    ("sqrt(x)", [1.0, -1.0, 4.0], "sqrt(-1.0)"),
])
def test_one_failing_array_element_is_an_expr_eval_error(src, values, bad):
    tree = fe.parse(src)
    with pytest.raises(ExprEvalError) as info:
        fe.evaluate(tree, {"x": np.array(values)})
    # the message names the failing element, not the array
    assert str(info.value).startswith(bad)
    for v in values:
        try:
            fe.evaluate(tree, {"x": v})
        except ExprEvalError:
            continue
        assert np.isfinite(fe.evaluate(tree, {"x": np.array([v, v])})).all()


def random_arithmetic(rng: random.Random, depth: int = 0) -> str:
    """Random expression over + - * / and unary minus only."""
    if depth > 3 or rng.random() < 0.3:
        return rng.choice(["2", "3", "0.5", "x", "t", "x", "t"])
    if rng.random() < 0.85:
        op = rng.choice(["+", "-", "*", "/"])
        return f"({random_arithmetic(rng, depth + 1)} {op} {random_arithmetic(rng, depth + 1)})"
    return f"-{random_arithmetic(rng, depth + 1)}"


def test_array_evaluation_of_arithmetic_equals_scalar_evaluation():
    rng = random.Random(5)
    xs = np.random.default_rng(5).uniform(-3.0, 3.0, size=(2, 64))
    checked = 0
    while checked < 200:
        tree = fe.parse(random_arithmetic(rng))
        try:
            scalar = [fe.evaluate(tree, {"x": x, "t": t}) for x, t in xs.T]
        except ExprEvalError:
            continue
        assert np.array_equal(fe.evaluate(tree, {"x": xs[0], "t": xs[1]}), scalar)
        checked += 1


@pytest.mark.parametrize("src", ["sin(x)", "cos(x)", "sqrt(abs(x))", "exp(x)", "abs(x)",
                                 "abs(x)^1.7", "abs(x)^t", "2^x", "x^3"])
def test_array_evaluation_of_powers_and_functions_is_within_4_ulp(src):
    # numpy's array loops may differ from its scalar ones in the last bits
    rng = np.random.default_rng(6)
    x, t = rng.uniform(-5.0, 5.0, size=(2, 2000))
    tree = fe.parse(src)
    scalar = np.array([fe.evaluate(tree, {"x": a, "t": b}) for a, b in zip(x, t)])
    stacked = fe.evaluate(tree, {"x": x, "t": t})
    assert np.all(np.abs(stacked - scalar) <= 4 * np.spacing(np.abs(scalar)))


def test_array_evaluation_broadcasts_and_keeps_scalars_float():
    x = np.linspace(0.0, 1.0, 5)
    assert np.array_equal(fe.evaluate(fe.parse("9.81"), {"x": x}), np.full(5, 9.81))
    assert np.array_equal(fe.evaluate(fe.parse("2*t"), {"t": 1.5, "x": x}), np.full(5, 3.0))
    assert type(fe.evaluate(fe.parse("x + 1"), {"x": 2})) is float


def test_expression_evaluates_again_with_new_bindings():
    expr = fe.parse("0.5 * x^2 - pi")
    assert fe.evaluate(expr, {"x": 2.0}) == 2.0 - math.pi
    assert fe.evaluate(expr, {"x": 4.0}) == 8.0 - math.pi
    with pytest.raises(ExprEvalError):
        fe.evaluate(expr, {"y": 1.0})


def test_free_variables():
    expr = fe.parse("9.81 + 0.3*x - sin(t) + pi")
    assert expr.variables == {"x", "t"}
    assert fe.parse("2 * pi").variables == frozenset()


def test_float_repr_parses_to_the_same_float():
    # the CLI reads a JSON number as the expression ``repr(float(v))``
    values = np.random.default_rng(8).standard_normal(500) * 10.0 ** np.arange(-250, 250)
    for v in [*values.tolist(), 5e-324, -5e-324, 1.7976931348623157e308, 0.1, -0.0, 0.0]:
        parsed = fe.evaluate(fe.parse(repr(v)))
        assert parsed == v and math.copysign(1.0, parsed) == math.copysign(1.0, v)


# ---------------------------------------------------------------------------
# The precedence oracle
# ---------------------------------------------------------------------------

def random_expression(rng: random.Random, depth: int = 0) -> str:
    """Random expression source over small integers and x, t."""
    if depth > 3 or rng.random() < 0.3:
        return rng.choice(["2", "3", "5", "x", "t", "0.5"])
    kind = rng.random()
    if kind < 0.7:
        op = rng.choice(["+", "-", "*", "/", "^"])
        return f"{random_expression(rng, depth + 1)} {op} {random_expression(rng, depth + 1)}"
    if kind < 0.8:
        return f"-{random_expression(rng, depth + 1)}"
    if kind < 0.9:
        return f"({random_expression(rng, depth + 1)})"
    return f"{rng.choice(['sin', 'cos', 'abs'])}({random_expression(rng, depth + 1)})"


def python_oracle(src: str, env: dict) -> float:
    """Python shares the full precedence table (** above unary minus above
    * / above + -, right-associative **), so its evaluator is an
    independent parenthesization oracle."""
    safe = {"sin": math.sin, "cos": math.cos, "sqrt": math.sqrt,
            "exp": math.exp, "abs": abs, "pi": math.pi, **env}
    return float(eval(src.replace("^", "**"), {"__builtins__": {}}, safe))  # noqa: S307


def test_precedence_against_python_oracle():
    rng = random.Random(42)
    env = {"x": 1.7, "t": -0.6}
    checked = 0
    while checked < 300:
        src = random_expression(rng)
        try:
            oracle = python_oracle(src, env)
        except (ZeroDivisionError, OverflowError, ValueError, TypeError):
            continue  # complex powers and division blowups are out of scope
        if not np.isfinite(oracle):
            continue
        try:
            ours = fe.evaluate(fe.parse(src), env)
        except ExprEvalError:
            continue  # our ^ on negative bases raises where Python goes complex
        assert ours == pytest.approx(oracle, rel=1e-12, abs=1e-12), src
        checked += 1
