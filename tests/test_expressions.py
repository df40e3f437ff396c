"""Scalar-field expression parser."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathcert.errors import ExpressionError
from pathcert.expressions import MAX_DEPTH, MAX_VARIABLE, parse_expression


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


def test_variable_index_is_capped():
    """An index above MAX_VARIABLE is rejected at its variable, however many
    digits it has, instead of becoming the field's dimension."""
    assert parse_expression("x064")[1] == MAX_VARIABLE == 64
    for text, position in (("x65", 0), ("1 + x123456789012", 4), ("x1*x" + "9" * 5000, 3)):
        with pytest.raises(ExpressionError, match="x1 to x64") as info:
            parse_expression(text)
        assert info.value.position == position


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



_PIECES = (
    "x1", "x2", "x3", "x0", "x", "y", "abs", "norm", "pi", "_", "1", "0", "2.5",
    ".5", "7.", "1e3", "1e-400", "e", "E", "9" * 320, "+", "-", "*", "/", "^",
    "(", ")", ",", ".", " ", "@", "#", "\t", "\u00e9",
)


_WELL_FORMED = st.recursive(
    st.sampled_from(["x1", "x2", "x3", "2.5", "0", "1e3", "norm(x)"]),
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from("+-*/^"), inner).map("".join),
        inner.map("({})".format),
        inner.map("-{}".format),
        inner.map("abs({})".format),
    ),
    max_leaves=12,
)


@settings(max_examples=120)
@given(
    text=st.one_of(
        _WELL_FORMED,
        st.tuples(_WELL_FORMED, st.integers(0, 40)).map(lambda t: t[0][: t[1]]),
        st.lists(st.sampled_from(_PIECES), max_size=80).map("".join),
        st.text(alphabet="x123().^*/+-eEa bsnorm_", max_size=60),
        st.text(max_size=20),
    )
)
def test_parser_raises_only_expression_errors(text):
    """Any text either parses into an evaluator that returns a float on a
    point of its dimension, or raises ExpressionError naming a position
    inside the text."""
    try:
        evaluator, dimension = parse_expression(text)
    except ExpressionError as error:
        assert 0 <= error.position <= len(text)
        return
    assert dimension >= 1
    if dimension <= 3:
        assert isinstance(evaluator(np.full(dimension, 0.5)), float)
