"""Expression parser and evaluator, including positioned errors."""

import math
import random
import struct

import numpy as np
import pytest

from fbsde import parse_expression
from fbsde.expressions import ARRAY_FORM_MIN, FUNCTIONS, MAX_DEPTH, Binary, Call, Num, Unary, Var
from fbsde.errors import (
    ArityError,
    ExpressionDomainError,
    ExpressionError,
    ExpressionSyntaxError,
    UnknownIdentifier,
)


class TestParsing:
    def test_readme_style_expression(self):
        expr = parse_expression("-y + 0.1*tanh(x)")
        got = expr.evaluate({"x": 1.0, "y": 2.0})
        assert got == pytest.approx(-2.0 + 0.1 * math.tanh(1.0), abs=1e-15)

    def test_power_is_right_associative(self):
        assert parse_expression("2^3^2").evaluate({}) == 512.0

    def test_power_binds_tighter_than_unary_minus(self):
        assert parse_expression("-2^2").evaluate({}) == -4.0
        assert parse_expression("2^-3").evaluate({}) == 0.125

    def test_precedence_chain(self):
        assert parse_expression("1 + 2*3^2").evaluate({}) == 19.0
        assert parse_expression("(1 + 2)*3").evaluate({}) == 9.0
        assert parse_expression("--2").evaluate({}) == 2.0
        assert parse_expression("6/3/2").evaluate({}) == 1.0

    def test_literals(self):
        assert parse_expression("1e3").evaluate({}) == 1000.0
        assert parse_expression("2.5E-2").evaluate({}) == 0.025
        assert parse_expression(".5").evaluate({}) == 0.5

    def test_functions(self):
        env = {"x": 0.3}
        assert parse_expression("sin(x)").evaluate(env) == pytest.approx(math.sin(0.3))
        assert parse_expression("min(x, 0)").evaluate(env) == 0.0
        assert parse_expression("max(x, 2*x)").evaluate(env) == pytest.approx(0.6)
        assert parse_expression("abs(-x)").evaluate(env) == pytest.approx(0.3)

    def test_variable_inventory(self):
        expr = parse_expression("t + x*y - z2 + w")
        assert expr.variables == {"t", "x", "y", "z2", "w"}


class TestPositionedErrors:
    def test_unterminated_call(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("min(x, ")
        assert info.value.position == 7

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifier) as info:
            parse_expression("fog(x)")
        assert info.value.position == 0
        assert info.value.name == "fog"

    def test_wrong_arity(self):
        with pytest.raises(ArityError) as info:
            parse_expression("min(x)")
        assert info.value.position == 0
        assert info.value.expected == 2

    def test_unknown_variable_offset(self):
        with pytest.raises(UnknownIdentifier) as info:
            parse_expression("x + volatility")
        assert info.value.position == 4

    def test_unexpected_character(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("x + $")
        assert info.value.position == 4

    def test_trailing_garbage(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("x 1")
        assert info.value.position == 2

    def test_missing_operand(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("1 + * 2")
        assert info.value.position == 4

    def test_unclosed_paren(self):
        with pytest.raises(ExpressionSyntaxError) as info:
            parse_expression("(x + 1")
        assert info.value.position == 6

    def test_z_index_rules(self):
        assert parse_expression("z1 + z12").variables == {"z1", "z12"}
        with pytest.raises(UnknownIdentifier):
            parse_expression("z0")
        with pytest.raises(UnknownIdentifier):
            parse_expression("z")

    def test_missing_env_variable(self):
        expr = parse_expression("x + y")
        with pytest.raises(UnknownIdentifier) as info:
            expr.evaluate({"x": 1.0})
        assert info.value.position == 4

    @pytest.mark.parametrize("source, message, position", [
        # a chain is refused at the leftmost node one level past the bound:
        # operator k - MAX_DEPTH - 1 of k terms, at offset 2j - 1 for the j-th
        ("+".join(["x"] * 5000), "chained", 2 * (5000 - MAX_DEPTH - 1) - 1),
        ("*".join(["y"] * 5000), "chained", 2 * (5000 - MAX_DEPTH - 1) - 1),
        ("-".join(["x"] * (MAX_DEPTH + 1)), "chained", 0),
        # nesting is refused at the first operand past the bound
        ("(" * 5000 + "x" + ")" * 5000, "nested", MAX_DEPTH),
        ("-" * 5000 + "x", "nested", MAX_DEPTH),
        ("^".join(["x"] * 5000), "nested", 2 * MAX_DEPTH),
        ("abs(" * 5000 + "x" + ")" * 5000, "nested", 4 * MAX_DEPTH),
    ], ids=["sum", "product", "one-past", "parentheses", "minus", "power", "calls"])
    def test_too_deep_an_expression_is_a_positioned_syntax_error(self, source, message, position):
        with pytest.raises(ExpressionSyntaxError,
                           match=f"^{message} deeper than {MAX_DEPTH} \\(offset {position}\\)$"):
            parse_expression(source)


class TestDomainErrors:
    def test_division_by_zero_is_positioned(self):
        expr = parse_expression("x/(y - y)")
        with pytest.raises(ExpressionDomainError) as info:
            expr.evaluate({"x": 1.0, "y": 3.0})
        assert info.value.position == 1

    def test_overflow(self):
        with pytest.raises(ExpressionDomainError):
            parse_expression("exp(x)").evaluate({"x": 1000.0})
        with pytest.raises(ExpressionDomainError):
            parse_expression("x^y").evaluate({"x": 10.0, "y": 400.0})

    def test_fractional_power_of_negative(self):
        with pytest.raises(ExpressionDomainError):
            parse_expression("x^0.5").evaluate({"x": -2.0})

    def test_zero_to_negative_power(self):
        with pytest.raises(ExpressionDomainError):
            parse_expression("x^-1").evaluate({"x": 0.0})


NUMBERS = ["0", "1", "2.5", "0.3", "1e2", ".25", "7"]


def random_source(rng, depth=0, numbers=NUMBERS):
    """Random grammar-valid expression source with literals from ``numbers``."""
    variables = ["t", "x", "y", "w", "z1"]
    if depth >= 4 or rng.random() < 0.3:
        kind = rng.choice(["num", "var"])
        if kind == "num":
            return str(rng.choice(numbers))
        return str(rng.choice(variables))
    kind = rng.choice(["binary", "unary", "call", "paren"])
    if kind == "binary":
        op = rng.choice(["+", "-", "*", "/", "^"])
        return f"({random_source(rng, depth + 1, numbers)} {op} {random_source(rng, depth + 1, numbers)})"
    if kind == "unary":
        return f"(-{random_source(rng, depth + 1, numbers)})"
    if kind == "call":
        name = rng.choice(["sin", "cos", "exp", "tanh", "abs", "min", "max"])
        if name in ("min", "max"):
            return (f"{name}({random_source(rng, depth + 1, numbers)}, "
                    f"{random_source(rng, depth + 1, numbers)})")
        return f"{name}({random_source(rng, depth + 1, numbers)})"
    return f"({random_source(rng, depth + 1, numbers)})"


def test_fuzzed_sources_parse_and_evaluate_or_raise_domain_errors():
    rng = np.random.default_rng(123)
    env = {"t": 1.0, "x": 0.7, "y": -1.3, "w": 2.0, "z1": 0.4}
    finite = 0
    domain = 0
    for _ in range(300):
        source = random_source(rng)
        expr = parse_expression(source)  # grammar-valid strings always parse
        try:
            value = expr.evaluate(env)
        except ExpressionDomainError as err:
            assert isinstance(err.position, int)
            assert 0 <= err.position < len(source)
            domain += 1
            continue
        assert math.isfinite(value)
        finite += 1
    assert finite > 0 and domain > 0


def reference_evaluate(node, env):
    """The tree-walking interpreter that ``Expression.evaluate`` compiles
    away: the reference for its values, errors and offsets."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return float(env[node.name])
        except KeyError:
            raise UnknownIdentifier(node.name, node.position) from None
    if isinstance(node, Unary):
        return -reference_evaluate(node.operand, env)
    if isinstance(node, Binary):
        a = reference_evaluate(node.left, env)
        b = reference_evaluate(node.right, env)
        return _reference_apply(node.op, a, b, node.position)
    assert isinstance(node, Call)
    args = [reference_evaluate(a, env) for a in node.args]
    fn, _ = FUNCTIONS[node.name]
    try:
        val = fn(*args)
    except (ValueError, OverflowError, ZeroDivisionError):
        raise ExpressionDomainError(f"{node.name} left the real domain", node.position) from None
    return _reference_finite(val, node.position)


def _reference_apply(op, a, b, pos):
    try:
        if op == "+":
            val = a + b
        elif op == "-":
            val = a - b
        elif op == "*":
            val = a * b
        elif op == "/":
            if b == 0.0:
                raise ExpressionDomainError("division by zero", pos)
            val = a / b
        else:
            val = math.pow(a, b)
    except OverflowError:
        raise ExpressionDomainError("overflow", pos) from None
    except ValueError:
        raise ExpressionDomainError("invalid power", pos) from None
    return _reference_finite(val, pos)


def _reference_finite(val, pos):
    val = float(val)
    if not math.isfinite(val):
        raise ExpressionDomainError("non-finite result", pos)
    return val


def outcome(evaluate, env):
    """The value's bits, or the error's type, message and offset."""
    try:
        value = evaluate(env)
    except ExpressionError as err:
        return type(err), str(err), err.position
    assert type(value) is float
    return struct.pack("<d", value)


#: Literals that probe the checks: zeros (-0 through a negation), huge
#: values, one that parses to inf, and repeats that make min/max ties.
EXTREME_NUMBERS = ["0", "0", "1", "1", "2.5", "1e300", "1e300", "1e999", "7"]


def test_compiled_evaluate_matches_the_interpreter():
    rng = np.random.default_rng(2024)
    specials = [0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 2.5]
    checked = {"value": 0, "error": 0, "missing": 0}
    for _ in range(3000):
        expr = parse_expression(random_source(rng, numbers=EXTREME_NUMBERS))
        for _ in range(3):
            env = {name: float(rng.choice(specials)) if rng.random() < 0.6
                   else float(rng.uniform(-3.0, 3.0)) for name in ("t", "x", "y", "w", "z1")}
            if rng.random() < 0.3:  # ties between variables
                env["y"] = env["x"]
            if rng.random() < 0.1:
                del env["z1"]
            want = outcome(lambda e: reference_evaluate(expr.root, e), env)
            assert outcome(expr.evaluate, env) == want, (expr.source, env)
            kind = "value" if isinstance(want, bytes) else (
                "missing" if want[0] is UnknownIdentifier else "error")
            checked[kind] += 1
    assert min(checked.values()) > 50, checked


@pytest.mark.parametrize("source", [
    "1e999", "-1e999", "x", "-x", "1e999 - 1e999", "min(0, -0)", "min(-0, 0)", "max(0, -0)",
    "max(-0, 0)", "x/-0", "1/(x - x)", "1e300*1e300", "exp(1e300)", "sin(1e999)", "0^-1",
    "(-8)^(1/3)", "1e300^2", "abs(-0)", "min(x, y) + max(y, x)", "tanh(x)*x/y - x^y",
    "min(1e999*abs(x), 1)",
    # as deep as the parser allows
    pytest.param("+".join(["x"] * 100), id="sum-100"),
    pytest.param("*".join(["y"] * MAX_DEPTH), id="product-at-bound"),
    pytest.param("(" * (MAX_DEPTH - 1) + "x" + ")" * (MAX_DEPTH - 1), id="parentheses-at-bound"),
    pytest.param("-" * (MAX_DEPTH - 1) + "x", id="minus-at-bound"),
])
def test_compiled_evaluate_matches_the_interpreter_on_edge_cases(source):
    expr = parse_expression(source)
    for x, y in [(0.0, -0.0), (-0.0, 0.0), (1e300, -1e300), (2.0, 2.0), (-2.0, 0.5)]:
        env = {"x": x, "y": y}
        assert outcome(expr.evaluate, env) == outcome(lambda e: reference_evaluate(expr.root, e), env)
    # a level large enough for the array form, with no zero x: a constant
    # that parses to inf must still fail where the node loop fails
    xs, ys = np.linspace(0.5, 2.0, ARRAY_FORM_MIN), np.linspace(-2.0, 1.0, ARRAY_FORM_MIN)
    want = [outcome(lambda e: reference_evaluate(expr.root, e), {"x": x, "y": y})
            for x, y in zip(xs.tolist(), ys.tolist())]
    try:
        got = [struct.pack("<d", v) for v in expr.evaluate({"x": xs, "y": ys}).tolist()]
    except ExpressionError as err:
        got = err.node, (type(err), str(err), err.position)
        want = next(((k, w) for k, w in enumerate(want) if not isinstance(w, bytes)), None)
    assert got == want


def test_errors_come_in_evaluation_order():
    # the division fails before the missing variable is read, and the other way round
    with pytest.raises(ExpressionDomainError, match="division by zero") as info:
        parse_expression("1/0 + z1").evaluate({})
    assert info.value.position == 1
    with pytest.raises(UnknownIdentifier) as ident:
        parse_expression("z1 + 1/0").evaluate({})
    assert (ident.value.name, ident.value.position) == ("z1", 0)
    # a variable read twice fails at its first use
    with pytest.raises(UnknownIdentifier) as twice:
        parse_expression("x*(1 + x)").evaluate({})
    assert twice.value.position == 0


def test_constants_are_bound_not_written_into_the_source():
    expr = parse_expression("1e999 + 0.1*x")
    with pytest.raises(ExpressionDomainError, match="non-finite result"):
        expr.evaluate({"x": 1.0})
    assert not any(isinstance(c, float) for c in expr._compiled.__code__.co_consts)
    assert parse_expression("1e999").evaluate({}) == math.inf
    # a constant too long to print round-trips exactly
    value = parse_expression("0.1000000000000000055511151231257827").evaluate({})
    assert value == float("0.1000000000000000055511151231257827")
