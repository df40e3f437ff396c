"""The two-path window evaluator, kept as a bit-for-bit reference.

Rows off the windows go through the skeleton's own evaluation
(``eval_affine_many`` or ``eval_affine_derivative_many``), rows inside a
window through the kink sum, and a ``derivative`` flag makes the value
and the slope two separate passes.  ``pathcert.mollifier`` evaluates
every row by the kink sum alone, with h = 0 off the windows, and must
give the same bits.
"""

from __future__ import annotations

import numpy as np

from pathcert.errors import DomainError, InputError
from pathcert.mollifier import kernel_mass_moment
from pathcert.skeleton import eval_affine_derivative_many, eval_affine_many


def mollified_rows(skeleton, ts: np.ndarray, hs: np.ndarray, derivative: bool) -> np.ndarray:
    """Kernel averages of the skeleton (or its slopes), one row per t."""
    lo, hi = skeleton.domain
    if float((ts - hs).min()) < lo - 1e-12 or float((ts + hs).max()) > hi + 1e-12:
        raise DomainError("an averaging range leaves the skeleton domain")
    bp = skeleton.breakpoints
    slopes = skeleton.slopes
    last = bp.size - 2
    first = np.clip(np.searchsorted(bp, ts - hs, side="right") - 1, 0, last)
    stop = np.minimum(np.searchsorted(bp, ts + hs, side="left"), last + 1)
    count = np.maximum(stop - first - 1, 0)
    if derivative:
        out = slopes[first]
    else:
        out = slopes[first] * ts[:, None] + skeleton.offsets[first]
    if not np.any(count):
        return out
    row = np.repeat(np.arange(ts.size), count)
    offset = np.cumsum(count) - count
    kink = first[row] + 1 + (np.arange(row.size) - offset[row])
    x = (ts[row] - bp[kink]) / hs[row]
    mass, moment = kernel_mass_moment(x)
    weight = mass if derivative else hs[row] * (x * mass - moment)
    terms = (slopes[kink] - slopes[kink - 1]) * weight[:, None]
    for j in range(int(count.max())):
        has = count > j
        out[has] += terms[offset[has] + j]
    return out


def eval_batch(path, ts, derivative: bool) -> np.ndarray:
    """Path values (or derivatives): the skeleton off the windows, the kink
    sum inside them."""
    arr = np.atleast_1d(np.asarray(ts, dtype=float))
    if arr.size == 0:
        raise InputError("at least one parameter value is required")
    lo, hi = path.domain
    if float(arr.min()) <= lo or float(arr.max()) > hi:
        bad = float(arr.min()) if float(arr.min()) <= lo else float(arr.max())
        raise DomainError(f"t = {bad!r} outside the path domain ({lo!r}, {hi!r}]")
    idx = path.window_indices(arr)
    out = np.empty((arr.size, path.dimension))
    plain = idx < 0
    if np.any(plain):
        evaluate = eval_affine_derivative_many if derivative else eval_affine_many
        out[plain] = evaluate(path.skeleton, arr[plain])
    windowed = np.nonzero(idx >= 0)[0]
    if windowed.size:
        out[windowed] = mollified_rows(
            path.skeleton, arr[windowed], path.h[idx[windowed]], derivative
        )
    return out
