"""Scalar-field expression parser."""

import math

import numpy as np
import pytest

from pathcert.errors import ExpressionError
from pathcert.expressions import MAX_DEPTH, parse_expression


def _eval(text, point):
    evaluator, _ = parse_expression(text)
    return evaluator(np.asarray(point, dtype=float))


def test_arithmetic_precedence():
    assert _eval("1 + 2 * 3", [0.0]) == 7.0
    assert _eval("(1 + 2) * 3", [0.0]) == 9.0
    assert _eval("10 - 4 - 3", [0.0]) == 3.0
    assert _eval("8 / 4 / 2", [0.0]) == 1.0


def test_power_binds_tighter_than_unary_minus():
    assert _eval("-x1^2", [3.0]) == -9.0
    assert _eval("(-x1)^2", [3.0]) == 9.0


def test_power_right_associative():
    assert _eval("2^3^2", [0.0]) == 512.0
    assert _eval("2^-1", [0.0]) == 0.5


def test_variables_index_coordinates():
    assert _eval("x1", [4.0, 5.0]) == 4.0
    assert _eval("x2", [4.0, 5.0]) == 5.0
    assert _eval("x1 * x2 + x3", [2.0, 3.0, 10.0]) == 16.0


def test_abs_and_norm():
    assert _eval("abs(x1 - 10)", [4.0]) == 6.0
    assert math.isclose(_eval("norm(x)", [3.0, 4.0]), 5.0, rel_tol=1e-15)
    assert _eval("norm(x)^2", [3.0, 4.0]) == pytest.approx(25.0, rel=1e-14)


def test_norm_requires_whole_point():
    with pytest.raises(ExpressionError):
        parse_expression("norm(x1)")


def test_dimension_inference():
    _, n = parse_expression("x1 + x2^2")
    assert n == 2
    _, n = parse_expression("x4")
    assert n == 4
    _, n = parse_expression("3.5")
    assert n == 1


def test_scientific_notation_numbers():
    assert _eval("1.5e-3 * 2", [0.0]) == 3.0e-3
    assert _eval(".5 + 2.", [0.0]) == 2.5


def test_rational_field_expression():
    evaluator, n = parse_expression("2*x1*x2/(x1^2+x2^2)")
    assert n == 2
    assert evaluator(np.array([0.3, 0.3])) == pytest.approx(1.0, rel=1e-14)
    assert evaluator(np.array([0.3, 0.0])) == 0.0


def test_parse_errors_carry_position():
    with pytest.raises(ExpressionError) as info:
        parse_expression("x0")
    assert info.value.position == 0
    with pytest.raises(ExpressionError) as info:
        parse_expression("1+")
    assert info.value.position == 2
    with pytest.raises(ExpressionError) as info:
        parse_expression("(1 + 2")
    assert info.value.position == 6
    with pytest.raises(ExpressionError) as info:
        parse_expression("sin(x1)")
    assert info.value.position == 0
    with pytest.raises(ExpressionError) as info:
        parse_expression("1 + $")
    assert info.value.position == 4
    with pytest.raises(ExpressionError):
        parse_expression("   ")


def test_trailing_garbage_rejected():
    with pytest.raises(ExpressionError):
        parse_expression("1 2")


def test_nan_semantics():
    assert math.isnan(_eval("1/x1", [0.0]))
    assert math.isnan(_eval("(0-1)^0.5", [0.0]))
    assert math.isnan(_eval("10^400^2", [0.0]))
    assert _eval("1/x1", [0.25]) == 4.0


@pytest.mark.parametrize(
    "nested",
    [
        lambda n: "(" * (n - 1) + "x1" + ")" * (n - 1),
        lambda n: "abs(" * (n - 1) + "x1" + ")" * (n - 1),
        lambda n: "-" * (n - 1) + "x1",
        lambda n: "x1^" * (n - 1) + "2",
        lambda n: "x1+" * (n - 1) + "x1",
        lambda n: "x1*" * (n - 1) + "x1",
    ],
    ids=["parens", "abs", "unary-minus", "power", "sum-chain", "product-chain"],
)
def test_depth_limit_is_exact(nested):
    """A tree of MAX_DEPTH levels parses and evaluates; one more level is
    rejected at the token where the tree passes the limit."""
    evaluator, _ = parse_expression(nested(MAX_DEPTH))
    assert math.isfinite(evaluator(np.array([0.5])))
    text = nested(MAX_DEPTH + 1)
    with pytest.raises(ExpressionError, match="deeper than 100 levels") as info:
        parse_expression(text)
    assert 0 < info.value.position < len(text)

