"""Scalar fields evaluated one row at a time, kept as a bit-for-bit reference.

These are the per-row forms the array evaluators of ``pathcert.harness``
and ``pathcert.expressions`` replace: every operation on Python floats or
numpy scalars, one point at a time.  ``values`` applies them the way
``ScalarField.values`` did, one call per row and 0.0 at the origin.
"""

import math

import numpy as np

_TINY = np.finfo(float).tiny


def rational2d(x):
    denom = x[0] * x[0] + x[1] * x[1]
    if denom < _TINY and np.any(x):
        return rational2d(x / np.max(np.abs(x)))
    return 2.0 * x[0] * x[1] / denom


def rational3d(x):
    denom = x[0] * x[0] + x[1] * x[1] + x[2] * x[2]
    if denom < _TINY and np.any(x):
        return rational3d(x / np.max(np.abs(x)))
    return 2.0 * x[0] * x[1] / denom


def parabola(x):
    return float(x @ x)


def ray_bump(axis, width):
    def evaluator(x):
        r2 = float(x @ x)
        dot = float(x @ axis)
        if dot <= 0.0:
            return 0.0
        if dot * dot < _TINY:
            top = float(np.max(np.abs(x)))
            return evaluator(x / top) if top < 1.0 else 0.0
        tan_sq = r2 / (dot * dot) - 1.0
        return math.exp(-tan_sq / (width * width))

    return evaluator


def _safe_pow(a, b):
    try:
        result = a ** b
    except (ValueError, OverflowError, ZeroDivisionError):
        return math.nan
    return math.nan if isinstance(result, complex) else float(result)


def expression(tree, x):
    """Evaluate a tree of ("const", c), ("var", i), ("norm",), ("neg", t),
    ("abs", t) and (op, a, b) nodes, op one of + - * / ^, at one point."""
    kind = tree[0]
    if kind == "const":
        return tree[1]
    if kind == "var":
        return float(x[tree[1] - 1])
    if kind == "norm":
        return float(np.linalg.norm(x))
    if kind == "neg":
        return -expression(tree[1], x)
    if kind == "abs":
        return abs(expression(tree[1], x))
    a, b = expression(tree[1], x), expression(tree[2], x)
    if kind == "+":
        return a + b
    if kind == "-":
        return a - b
    if kind == "*":
        return a * b
    if kind == "/":
        return math.nan if b == 0.0 else a / b
    return _safe_pow(a, b)


def normalized(evaluator, dimension):
    """``evaluator`` shifted so the origin maps to 0, as fields from
    expressions are."""
    with np.errstate(all="ignore"):
        at_zero = float(evaluator(np.zeros(dimension)))
    if not math.isfinite(at_zero) or at_zero == 0.0:
        return evaluator
    return lambda x: float(evaluator(x)) - at_zero


def values(evaluator, rows):
    """One call of ``evaluator`` per row, 0.0 at each origin row."""
    with np.errstate(all="ignore"):
        return np.array([float(evaluator(row)) if np.any(row) else 0.0 for row in rows])
